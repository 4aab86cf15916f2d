#include "core/comm_stats.h"

#include <sstream>

#include "common/check.h"
#include "mem/types.h"

namespace dsm {

void CommBreakdown::Merge(const CommBreakdown& other) {
  useful_messages += other.useful_messages;
  useless_messages += other.useless_messages;
  sync_messages += other.sync_messages;
  useful_data_bytes += other.useful_data_bytes;
  piggyback_useless_bytes += other.piggyback_useless_bytes;
  useless_msg_data_bytes += other.useless_msg_data_bytes;
  delivered_data_bytes += other.delivered_data_bytes;
  home_flush_messages += other.home_flush_messages;
  home_flushes += other.home_flushes;
  home_flush_bytes += other.home_flush_bytes;
  home_fetches += other.home_fetches;
  home_fetch_bytes += other.home_fetch_bytes;
  recoveries += other.recoveries;
  recovery_messages += other.recovery_messages;
  recovery_data_bytes += other.recovery_data_bytes;
  recovery_units += other.recovery_units;
  recovery_records += other.recovery_records;
  recovery_retransmits += other.recovery_retransmits;
  recovery_retransmit_bytes += other.recovery_retransmit_bytes;
  signature.Merge(other.signature);
  read_faults += other.read_faults;
  write_faults += other.write_faults;
  silent_validations += other.silent_validations;
  twins_created += other.twins_created;
  diffs_created += other.diffs_created;
  diffs_applied += other.diffs_applied;
  units_invalidated += other.units_invalidated;
  group_prefetch_units += other.group_prefetch_units;
  notice_clock_bytes += other.notice_clock_bytes;
  notice_clock_bytes_dense += other.notice_clock_bytes_dense;
}

std::string CommBreakdown::ToString() const {
  std::ostringstream out;
  out << "messages: useful=" << useful_messages
      << " useless=" << useless_messages << " sync=" << sync_messages
      << "\n";
  out << "data bytes: useful=" << useful_data_bytes
      << " piggyback_useless=" << piggyback_useless_bytes
      << " useless_msg=" << useless_msg_data_bytes << "\n";
  out << "events: rfault=" << read_faults << " wfault=" << write_faults
      << " silent=" << silent_validations << " twin=" << twins_created
      << " diff+=" << diffs_created << " diff->=" << diffs_applied
      << " inval=" << units_invalidated << "\n";
  if (home_flushes + home_fetches > 0) {
    out << "home: flushes=" << home_flushes << " (" << home_flush_bytes
        << " B) fetches=" << home_fetches << " (" << home_fetch_bytes
        << " B)\n";
  }
  if (recoveries > 0) {
    out << "recovery: episodes=" << recoveries
        << " messages=" << recovery_messages << " ("
        << recovery_data_bytes << " B) units=" << recovery_units
        << " records=" << recovery_records << " retransmits="
        << recovery_retransmits << " (" << recovery_retransmit_bytes
        << " B)\n";
  }
  if (notice_clock_bytes_dense > 0) {
    out << "notice clocks: sparse=" << notice_clock_bytes
        << " B dense-equivalent=" << notice_clock_bytes_dense << " B\n";
  }
  out << "signature:\n" << signature.ToString();
  return out.str();
}

void CommStats::RecordFault(int num_writers, std::uint32_t first_exchange) {
  DSM_CHECK_GT(num_writers, 0);
  faults_.push_back(
      {first_exchange, static_cast<std::uint16_t>(num_writers)});
}

CommBreakdown CommStats::Finalize() const {
  CommBreakdown out = counters_;

  exchanges_.ForEach([&out](const ExchangeRecord& e) {
    const bool useful = e.useful_words > 0;
    const std::uint64_t useful_bytes =
        static_cast<std::uint64_t>(e.useful_words) * kWordBytes;
    const std::uint64_t useless_bytes =
        static_cast<std::uint64_t>(e.delivered_words - e.useful_words) *
        kWordBytes;
    if (useful) {
      out.useful_messages += 2;  // request + response
      out.useful_data_bytes += useful_bytes;
      out.piggyback_useless_bytes += useless_bytes;
    } else {
      out.useless_messages += 2;
      out.useless_msg_data_bytes += useless_bytes;
    }
  });

  faults_.ForEach([this, &out](const FaultRecord& f) {
    for (std::uint16_t i = 0; i < f.num_writers; ++i) {
      const auto& e = exchanges_[f.first_exchange + i];
      if (e.useful_words > 0) {
        out.signature.AddUseful(f.num_writers);
      } else {
        out.signature.AddUseless(f.num_writers);
      }
    }
  });
  return out;
}

}  // namespace dsm
