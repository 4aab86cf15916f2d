// Semantic communication statistics: the paper's measurement methodology.
//
// Every page fault that sends messages contacts some set of concurrent
// writers; the exchange with each writer is one request + one response
// (diffs).  CommStats records one ExchangeRecord per writer contacted and
// one FaultRecord per fault.  WordTracker credits exchanges with useful
// words as delivered words are read.  Finalize() then computes the
// breakdowns shown in Figures 1–3:
//
//   * useful / useless messages  (a message is useless iff the exchange
//     delivered no word that was read before being overwritten),
//   * useful data / piggybacked useless data (useless words on useful
//     messages) / useless data on useless messages,
//   * the false sharing signature: histogram over faults of the number of
//     concurrent writers contacted, split useful/useless per exchange.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/histogram.h"

namespace dsm {

// Finalized communication breakdown for one run (or one node).
struct CommBreakdown {
  // Message counts.  Each exchange contributes 2 messages (request +
  // response), classified together, matching the paper's examples ("the
  // messages exchanged with p2 are useless messages").
  std::uint64_t useful_messages = 0;
  std::uint64_t useless_messages = 0;
  std::uint64_t sync_messages = 0;  // barrier/lock traffic (always useful)

  // Data volumes, in bytes of diff payload words.
  std::uint64_t useful_data_bytes = 0;
  std::uint64_t piggyback_useless_bytes = 0;  // useless words on useful msgs
  std::uint64_t useless_msg_data_bytes = 0;   // words on useless msgs
  // Independent tally of diff payload: incremented by the protocol once
  // per APPLIED diff (Node::FetchUnits' apply loop), a different code path
  // from the per-exchange word bookkeeping that Finalize() classifies.
  // Invariant: total_data_bytes() == delivered_data_bytes — every applied
  // word must be accounted for by the useful/useless split, so a missed
  // AddDelivered, a double-count across merged chains, or an over-credit
  // breaks the equality.
  std::uint64_t delivered_data_bytes = 0;

  // Home-based LRC traffic (BackendKind::kHlrc, DESIGN.md §7).  Fetch
  // exchanges (home → reader) go through the regular exchange machinery,
  // so their words land in the useful/useless split and in
  // delivered_data_bytes — the accounting invariant covers them
  // unchanged.  Flush traffic (writer → home) moves data nobody has read
  // yet; it is outside the paper's reader-side taxonomy and is tallied
  // separately here (and in NetStats under the kHome* kinds).  Counters
  // cover remote homes only: self-homed units flush and fetch locally,
  // with no messages.
  std::uint64_t home_flush_messages = 0;  // flush + ack, 2 per home contacted
  std::uint64_t home_flushes = 0;         // units flushed to a remote home
  std::uint64_t home_flush_bytes = 0;     // diff payload absorbed by homes
  std::uint64_t home_fetches = 0;         // whole units fetched from homes
  std::uint64_t home_fetch_bytes = 0;     // full-unit payload delivered

  // Crash-recovery traffic (DESIGN.md §9).  Like home-flush traffic, the
  // rebuild data is outside the paper's reader-side useful/useless
  // taxonomy (the victim re-reads everything; classifying the copies
  // would poison the false-sharing signature) and outside
  // delivered_data_bytes, whose invariant covers fault-path deliveries
  // only.  All zero — and skipped by ToString and the bench fingerprint —
  // unless a FaultPlan actually fired.
  std::uint64_t recoveries = 0;             // crash-recovery episodes
  std::uint64_t recovery_messages = 0;      // requests + replies, all sources
  std::uint64_t recovery_data_bytes = 0;    // checkpoint/home/log payload
  std::uint64_t recovery_units = 0;         // units rebuilt into the image
  std::uint64_t recovery_records = 0;       // archive records replayed (LRC)
  // HLRC home-crash retransmits: an exchange addressed to a crashed,
  // re-homed unit times out and is re-sent to the new home.  Each node
  // pays this once per re-home batch, at its first home contact after the
  // batch takes effect (it learns the new map from the timeout).  Like
  // the other recovery counters: zero, fingerprint-skipped, and outside
  // the reader-side taxonomy unless a schedule actually fired.
  std::uint64_t recovery_retransmits = 0;       // timed-out, re-sent requests
  std::uint64_t recovery_retransmit_bytes = 0;  // request payload re-sent

  // False sharing signature (Figure 3): bucket k = faults that contacted k
  // concurrent writers; per bucket, exchanges split useful/useless.
  SplitHistogram signature;

  // Protocol event counters.
  std::uint64_t read_faults = 0;
  std::uint64_t write_faults = 0;
  std::uint64_t silent_validations = 0;  // updated-invalid unit validated
  std::uint64_t twins_created = 0;
  std::uint64_t diffs_created = 0;
  std::uint64_t diffs_applied = 0;
  std::uint64_t units_invalidated = 0;
  std::uint64_t group_prefetch_units = 0;  // units fetched via page groups

  // Sparse-clock wire accounting (DESIGN.md §8), telemetry only: bytes
  // the per-notice interval clocks would occupy under the run-length
  // encoding versus the dense 4-bytes-per-proc form, summed over every
  // notice this node consumed (barrier collection and lock grants).  The
  // modelled 16-byte notice header abstracts the clock, so neither
  // counter enters total_data_bytes() or the modelled fingerprint; the
  // ratio is the scaling evidence — on low-sharing programs the sparse
  // bytes track the writer-frontier count while the dense bytes track
  // num_procs.
  std::uint64_t notice_clock_bytes = 0;
  std::uint64_t notice_clock_bytes_dense = 0;

  std::uint64_t total_messages() const {
    return useful_messages + useless_messages + sync_messages +
           home_flush_messages + recovery_messages + recovery_retransmits;
  }
  std::uint64_t total_data_bytes() const {
    return useful_data_bytes + piggyback_useless_bytes +
           useless_msg_data_bytes;
  }
  std::uint64_t useless_data_bytes() const {
    return piggyback_useless_bytes + useless_msg_data_bytes;
  }

  void Merge(const CommBreakdown& other);
  std::string ToString() const;
};

// Append-and-index log for CommStats' records: fixed 4 KiB chunks,
// allocated on first use and never moved, so growing the log never holds
// an old and a new buffer at once and a node that logs little pays one
// page.  Indices are dense from 0 in append order.
template <typename T>
class ChunkedLog {
 public:
  static constexpr std::size_t kChunkBytes = 4096;
  static constexpr std::uint32_t kPerChunk =
      static_cast<std::uint32_t>(kChunkBytes / sizeof(T));
  static_assert(kChunkBytes % sizeof(T) == 0 &&
                (kPerChunk & (kPerChunk - 1)) == 0);

  std::uint32_t size() const { return size_; }

  // Appends `v`; returns its index.
  std::uint32_t push_back(const T& v) {
    if (size_ % kPerChunk == 0) chunks_.push_back(std::make_unique<Chunk>());
    chunks_.back()->items[size_ % kPerChunk] = v;
    return size_++;
  }

  T& operator[](std::uint32_t i) {
    return chunks_[i / kPerChunk]->items[i % kPerChunk];
  }
  const T& operator[](std::uint32_t i) const {
    return chunks_[i / kPerChunk]->items[i % kPerChunk];
  }

  // Calls fn(record) for every record, in append order.
  template <typename Fn>
  void ForEach(Fn&& fn) const {
    std::uint32_t left = size_;
    for (const auto& chunk : chunks_) {
      const std::uint32_t n = std::min(left, kPerChunk);
      for (std::uint32_t i = 0; i < n; ++i) fn(chunk->items[i]);
      left -= n;
    }
  }

  // Host bytes held by the chunks.
  std::size_t bytes() const { return chunks_.size() * kChunkBytes; }

 private:
  struct Chunk {
    T items[kPerChunk];
  };
  std::vector<std::unique_ptr<Chunk>> chunks_;
  std::uint32_t size_ = 0;
};

// Per-node, single-threaded statistics collector.
class CommStats {
 public:
  CommStats() = default;

  // Open a new exchange; returns its id, which WordTracker uses to tag
  // delivered words.  Ids are dense from 0.
  std::uint32_t NewExchange() { return exchanges_.push_back({}); }

  // The exchange delivered `words` more diff payload words.
  void AddDelivered(std::uint32_t exchange_id, std::uint32_t words) {
    exchanges_[exchange_id].delivered_words += words;
  }
  // `words` delivered words were read before being overwritten.
  void Credit(std::uint32_t exchange_id, std::uint32_t words) {
    exchanges_[exchange_id].useful_words += words;
  }

  // A fault contacted `num_writers` distinct writers whose exchanges are
  // [first_exchange, first_exchange + num_writers).
  void RecordFault(int num_writers, std::uint32_t first_exchange);

  std::uint32_t num_exchanges() const { return exchanges_.size(); }

  // Host bytes held by the exchange and fault logs (telemetry only).
  std::size_t log_bytes() const {
    return exchanges_.bytes() + faults_.bytes();
  }

  // Event counters, incremented by the protocol.
  CommBreakdown& counters() { return counters_; }

  // Classify all exchanges and produce the breakdown.  Words still fresh
  // (never read) count as useless.  Idempotent snapshot.
  CommBreakdown Finalize() const;

 private:
  // 8 bytes: Finalize needs only the two word counts (DESIGN.md §8,
  // "Usefulness ledger").
  struct ExchangeRecord {
    std::uint32_t delivered_words = 0;
    std::uint32_t useful_words = 0;
  };
  struct FaultRecord {
    std::uint32_t first_exchange = 0;
    std::uint16_t num_writers = 0;
  };

  ChunkedLog<ExchangeRecord> exchanges_;
  ChunkedLog<FaultRecord> faults_;
  CommBreakdown counters_;  // event counters + sync messages live here
};

}  // namespace dsm
