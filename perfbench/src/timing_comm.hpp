#pragma once
// Communication accounting from outside the parallel layer: a decorator
// around the thread transport, injected through `DistConfig::commFactory`,
// that counts messages and payload bytes and times send / recv / pollInbox
// per rank. Under the thread transport rank r's thread is the only caller of
// send(from = r), recv(to = r) and pollInbox(r), so each rank's counters
// have a single writer; they are read after `run()` has joined the rank
// threads.
#include <chrono>
#include <cstdint>
#include <vector>

#include "parallel/comm.hpp"

namespace perfbench {

class TimingComm final : public nglts::parallel::Communicator {
 public:
  struct alignas(64) RankCounters {
    double sendSeconds = 0.0;
    double recvSeconds = 0.0;  ///< blocked in recv, waiting for data
    double pollSeconds = 0.0;
    std::uint64_t messages = 0;
    std::uint64_t bytes = 0;
  };

  explicit TimingComm(nglts::int_t ranks)
      : Communicator(ranks), inner_(ranks), counters_(static_cast<std::size_t>(ranks)) {}

  void send(nglts::int_t from, nglts::int_t to, std::int64_t tag,
            std::vector<std::uint8_t> data) override {
    RankCounters& c = counters_[static_cast<std::size_t>(from)];
    ++c.messages;
    c.bytes += data.size();
    const auto t0 = Clock::now();
    inner_.send(from, to, tag, std::move(data));
    c.sendSeconds += seconds(t0);
  }

  std::vector<std::uint8_t> recv(nglts::int_t to, nglts::int_t from, std::int64_t tag) override {
    const auto t0 = Clock::now();
    std::vector<std::uint8_t> data = inner_.recv(to, from, tag);
    counters_[static_cast<std::size_t>(to)].recvSeconds += seconds(t0);
    return data;
  }

  void pollInbox(nglts::int_t to) override {
    const auto t0 = Clock::now();
    inner_.pollInbox(to);
    counters_[static_cast<std::size_t>(to)].pollSeconds += seconds(t0);
  }

  std::uint64_t bytesSent() const override { return inner_.bytesSent(); }
  std::uint64_t messagesSent() const override { return inner_.messagesSent(); }

  /// Totals over all ranks.
  RankCounters total() const {
    RankCounters t;
    for (const RankCounters& c : counters_) {
      t.sendSeconds += c.sendSeconds;
      t.recvSeconds += c.recvSeconds;
      t.pollSeconds += c.pollSeconds;
      t.messages += c.messages;
      t.bytes += c.bytes;
    }
    return t;
  }

 private:
  using Clock = std::chrono::steady_clock;
  static double seconds(Clock::time_point t0) {
    return std::chrono::duration<double>(Clock::now() - t0).count();
  }

  nglts::parallel::ThreadComm inner_;
  std::vector<RankCounters> counters_;
};

}  // namespace perfbench
