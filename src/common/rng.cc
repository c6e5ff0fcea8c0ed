#include "common/rng.h"

#include <mutex>

namespace graphrare {

namespace {

using State = std::array<uint64_t, 4>;

/// m * s over GF(2): the XOR of the columns of m selected by s's set bits.
State Apply(const std::array<State, 256>& m, const State& s) {
  State r = {0, 0, 0, 0};
  for (int w = 0; w < 4; ++w) {
    for (uint64_t bits = s[static_cast<size_t>(w)]; bits != 0;
         bits &= bits - 1) {
      const State& col =
          m[static_cast<size_t>(w * 64 + __builtin_ctzll(bits))];
      r[0] ^= col[0];
      r[1] ^= col[1];
      r[2] ^= col[2];
      r[3] ^= col[3];
    }
  }
  return r;
}

}  // namespace

const Rng::Gf2Matrix& Rng::TransitionPower(int j) {
  GR_CHECK(j >= 0 && j < 64);
  // Static storage is zero-filled, so levels never asked for cost no
  // resident memory; each level is built once, from the one below it.
  static std::once_flag built[64];
  static Gf2Matrix powers[64];
  std::call_once(built[j], [j] {
    Gf2Matrix& m = powers[j];
    if (j == 0) {
      // Column b of T: one xoshiro step applied to the unit state e_b
      // (the transition is linear over GF(2)).
      for (int b = 0; b < 256; ++b) {
        Rng r;
        for (int w = 0; w < 4; ++w) r.state_[w] = 0;
        r.state_[b / 64] = uint64_t{1} << (b % 64);
        r.Next();
        for (int w = 0; w < 4; ++w) m[static_cast<size_t>(b)][w] = r.state_[w];
      }
      return;
    }
    // T^(2^j) = (T^(2^(j-1)))^2, column by column.
    const Gf2Matrix& half = TransitionPower(j - 1);
    for (size_t b = 0; b < 256; ++b) m[b] = Apply(half, half[b]);
  });
  return powers[j];
}

void Rng::Advance(uint64_t k) {
  State s = {state_[0], state_[1], state_[2], state_[3]};
  for (int j = 0; k != 0; ++j, k >>= 1) {
    if (k & 1) s = Apply(TransitionPower(j), s);
  }
  for (int w = 0; w < 4; ++w) state_[w] = s[static_cast<size_t>(w)];
}

}  // namespace graphrare
