// Copyright 2026 The GraphRARE Authors.
//
// Training telemetry: CSV export of GraphRareResult (the Fig. 6 curves)
// and per-round block-rollout telemetry — block sizes, merge conflicts,
// rewards — logged at the end of every PPO round so large runs surface
// scheduler health without a debugger.

#ifndef GRAPHRARE_CORE_TELEMETRY_H_
#define GRAPHRARE_CORE_TELEMETRY_H_

#include <string>

#include "common/status.h"
#include "core/edit_merger.h"

namespace graphrare {
namespace core {

struct GraphRareResult;  // core/trainer.h, which includes this header

/// Writes one row per co-training iteration:
/// iteration,train_accuracy,val_accuracy,homophily,reward
Status WriteTelemetryCsv(const GraphRareResult& result,
                         const std::string& path);

/// Formats the same content into a string (unit tests, stdout piping).
std::string TelemetryCsvString(const GraphRareResult& result);

/// One block-rollout round's worth of scheduler + merge telemetry.
struct BlockRoundTelemetry {
  int round = 0;
  int num_blocks = 0;
  /// Sum of block node counts this round.
  int64_t block_nodes = 0;
  /// EditMerger conflict accounting for the round (see ConflictStats).
  ConflictStats conflicts;
  double mean_reward = 0.0;
  /// Full-graph validation accuracy on the merged topology.
  double val_accuracy = 0.0;
};

/// One-line human-readable summary of a round.
std::string FormatBlockRound(const BlockRoundTelemetry& t);

/// Logs FormatBlockRound at INFO severity.
void LogBlockRound(const BlockRoundTelemetry& t);

}  // namespace core
}  // namespace graphrare

#endif  // GRAPHRARE_CORE_TELEMETRY_H_
