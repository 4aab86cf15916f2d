// Strict modelled-state comparison shared by the equivalence suites
// (archive GC, race detector, crash recovery, span access).
//
// Every modelled quantity of two runs, bit for bit: clocks, every
// CommBreakdown counter (home-based and crash-recovery traffic and the
// sparse-clock notice tallies included), the false-sharing signature, and
// the per-kind network tallies.  Host-side telemetry is excluded:
// MemoryFootprint (it changes with the GC setting), RaceStats, and the
// recovery wall time.
#pragma once

#include <gtest/gtest.h>

#include <cstddef>
#include <string>

#include "core/runtime.h"

namespace dsm {

inline void ExpectModelledStateEqual(const RunStats& a, const RunStats& b,
                                     const std::string& where) {
  EXPECT_EQ(a.exec_time, b.exec_time) << where;
  EXPECT_EQ(a.node_times, b.node_times) << where;
  EXPECT_EQ(a.recovery_events, b.recovery_events) << where;
  EXPECT_EQ(a.recovery_modelled_ns, b.recovery_modelled_ns) << where;

  const CommBreakdown& ca = a.comm;
  const CommBreakdown& cb = b.comm;
  EXPECT_EQ(ca.useful_messages, cb.useful_messages) << where;
  EXPECT_EQ(ca.useless_messages, cb.useless_messages) << where;
  EXPECT_EQ(ca.sync_messages, cb.sync_messages) << where;
  EXPECT_EQ(ca.useful_data_bytes, cb.useful_data_bytes) << where;
  EXPECT_EQ(ca.piggyback_useless_bytes, cb.piggyback_useless_bytes) << where;
  EXPECT_EQ(ca.useless_msg_data_bytes, cb.useless_msg_data_bytes) << where;
  EXPECT_EQ(ca.delivered_data_bytes, cb.delivered_data_bytes) << where;
  EXPECT_EQ(ca.home_flush_messages, cb.home_flush_messages) << where;
  EXPECT_EQ(ca.home_flushes, cb.home_flushes) << where;
  EXPECT_EQ(ca.home_flush_bytes, cb.home_flush_bytes) << where;
  EXPECT_EQ(ca.home_fetches, cb.home_fetches) << where;
  EXPECT_EQ(ca.home_fetch_bytes, cb.home_fetch_bytes) << where;
  EXPECT_EQ(ca.recoveries, cb.recoveries) << where;
  EXPECT_EQ(ca.recovery_messages, cb.recovery_messages) << where;
  EXPECT_EQ(ca.recovery_data_bytes, cb.recovery_data_bytes) << where;
  EXPECT_EQ(ca.recovery_units, cb.recovery_units) << where;
  EXPECT_EQ(ca.recovery_records, cb.recovery_records) << where;
  EXPECT_EQ(ca.recovery_retransmits, cb.recovery_retransmits) << where;
  EXPECT_EQ(ca.recovery_retransmit_bytes, cb.recovery_retransmit_bytes)
      << where;
  EXPECT_EQ(ca.read_faults, cb.read_faults) << where;
  EXPECT_EQ(ca.write_faults, cb.write_faults) << where;
  EXPECT_EQ(ca.silent_validations, cb.silent_validations) << where;
  EXPECT_EQ(ca.twins_created, cb.twins_created) << where;
  EXPECT_EQ(ca.diffs_created, cb.diffs_created) << where;
  EXPECT_EQ(ca.diffs_applied, cb.diffs_applied) << where;
  EXPECT_EQ(ca.units_invalidated, cb.units_invalidated) << where;
  EXPECT_EQ(ca.group_prefetch_units, cb.group_prefetch_units) << where;
  EXPECT_EQ(ca.notice_clock_bytes, cb.notice_clock_bytes) << where;
  EXPECT_EQ(ca.notice_clock_bytes_dense, cb.notice_clock_bytes_dense)
      << where;
  EXPECT_EQ(ca.signature.ToString(), cb.signature.ToString()) << where;

  for (std::size_t k = 0; k < kNumMessageKinds; ++k) {
    const auto kind = static_cast<MessageKind>(k);
    EXPECT_EQ(a.net.messages(kind), b.net.messages(kind)) << where;
    EXPECT_EQ(a.net.bytes(kind), b.net.bytes(kind)) << where;
  }
}

}  // namespace dsm
