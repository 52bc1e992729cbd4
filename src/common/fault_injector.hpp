// FaultInjector: deterministic execution-fault and stall injection for
// robustness tests and overload experiments.
//
// The engine consults an installed injector at every tile boundary (the
// same boundaries where cancellation and deadlines are checked), passing
// the tile's schedule-order index. The injector then either
//
//   * throws EngineFault           (fault_tiles / seeded tile_fault_rate),
//   * sleeps for stall_for         (stall_tiles), or
//   * just counts the visit        (probe mode: all triggers empty).
//
// Determinism: triggers depend only on the configured tile lists or on
// hash(seed, tile_index) — never on wall clock, lane ids, or scheduling
// order — so a given (seed, plan) faults the same tiles on every run and
// every thread count. Stalls change timing only, never results.
//
// Installation points (both optional, request wins):
//   * SaloConfig::fault_injector          — every run through the engine;
//   * AttentionRequest::fault_injector    — one specific request, which is
//     how tests prove a faulted lane fails exactly one future while the
//     rest of the batch completes.
//
// Probe mode doubles as a reached-the-engine detector: an injector with no
// triggers counts tiles_seen(), so a test can assert a shed request never
// executed (tiles_seen() == 0).
#pragma once

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "common/hash.hpp"
#include "core/cancellation.hpp"
#include "core/errors.hpp"

namespace salo {

class FaultInjector {
public:
    struct Config {
        /// Seed for the probabilistic trigger; also recorded by benches.
        std::uint64_t seed = 0;
        /// Probability that any given tile index faults, decided by
        /// hash(seed, tile) — deterministic per (seed, tile). 0 disables.
        double tile_fault_rate = 0.0;
        /// Explicit schedule-order tile indices that throw EngineFault.
        std::vector<int> fault_tiles;
        /// Explicit schedule-order tile indices that sleep for stall_for.
        std::vector<int> stall_tiles;
        std::chrono::microseconds stall_for{0};
        /// Stop injecting after this many faults (< 0 = unlimited), so a
        /// test can fault one request and leave the session serviceable.
        int max_faults = -1;
        /// Stop stalling after this many stalls (< 0 = unlimited), so a
        /// test can wedge one attempt and let its retry run clean.
        int max_stalls = -1;
    };

    FaultInjector() = default;
    explicit FaultInjector(Config config) : config_(std::move(config)) {}

    /// Consulted by the engine before executing tile `tile` (schedule
    /// order, per head). May throw EngineFault or sleep; always counts.
    ///
    /// A stall is bounded by the run's robustness hooks: the sleep is taken
    /// in small slices, and if `deadline` passes (or `cancel` fires) before
    /// the stall elapses, the stall throws DeadlineExceeded /
    /// RequestCancelled instead of blocking the lane for the remainder —
    /// an injected wedge can never hold a request past its deadline.
    void on_tile(int tile,
                 const std::optional<std::chrono::steady_clock::time_point>& deadline =
                     std::nullopt,
                 const CancellationToken* cancel = nullptr) const {
        tiles_seen_.fetch_add(1, std::memory_order_relaxed);
        if (should_stall(tile) && claim(stalls_injected_, config_.max_stalls))
            stall(tile, deadline, cancel);
        if (!should_fault(tile) || !claim(faults_injected_, config_.max_faults)) return;
        throw EngineFault("FaultInjector: injected fault at tile " +
                          std::to_string(tile) + " (seed " +
                          std::to_string(config_.seed) + ")");
    }

    const Config& config() const { return config_; }
    std::uint64_t tiles_seen() const { return tiles_seen_.load(); }
    std::uint64_t faults_injected() const { return faults_injected_.load(); }
    std::uint64_t stalls_injected() const { return stalls_injected_.load(); }

    /// The deterministic probabilistic trigger, exposed for tests: true iff
    /// hash(seed, tile) falls under tile_fault_rate.
    bool seeded_fault(int tile) const {
        if (config_.tile_fault_rate <= 0.0) return false;
        Fnv1a h;
        h.mix(config_.seed);
        h.mix(tile);
        const double u = static_cast<double>(h.digest() >> 11) *
                         (1.0 / static_cast<double>(1ULL << 53));
        return u < config_.tile_fault_rate;
    }

private:
    /// Count one injection against `cap` (< 0 = unlimited); false once the
    /// cap is spent. The compare-exchange keeps the cap exact when the
    /// heads of one layer reach the same tile on several lanes at once.
    static bool claim(std::atomic<std::uint64_t>& count, int cap) {
        std::uint64_t seen = count.load(std::memory_order_relaxed);
        do {
            if (cap >= 0 && seen >= static_cast<std::uint64_t>(cap)) return false;
        } while (!count.compare_exchange_weak(seen, seen + 1, std::memory_order_relaxed));
        return true;
    }

    void stall(int tile,
               const std::optional<std::chrono::steady_clock::time_point>& deadline,
               const CancellationToken* cancel) const {
        using Clock = std::chrono::steady_clock;
        const Clock::time_point until = Clock::now() + config_.stall_for;
        for (;;) {
            const Clock::time_point now = Clock::now();
            if (deadline && now >= *deadline)
                throw DeadlineExceeded("deadline exceeded during injected stall at "
                                       "tile " +
                                       std::to_string(tile));
            if (cancel != nullptr && cancel->cancelled())
                throw RequestCancelled("request cancelled during injected stall at "
                                       "tile " +
                                       std::to_string(tile));
            if (now >= until) return;
            // Sleep in slices so a deadline or cancel lands within ~1 ms of
            // firing, however long the configured stall is.
            Clock::time_point next = std::min(until, now + std::chrono::milliseconds(1));
            if (deadline && *deadline < next) next = *deadline;
            std::this_thread::sleep_until(next);
        }
    }

    bool listed(const std::vector<int>& tiles, int tile) const {
        for (int t : tiles)
            if (t == tile) return true;
        return false;
    }

    bool should_fault(int tile) const {
        return listed(config_.fault_tiles, tile) || seeded_fault(tile);
    }

    bool should_stall(int tile) const {
        return config_.stall_for.count() > 0 && listed(config_.stall_tiles, tile);
    }

    Config config_;
    mutable std::atomic<std::uint64_t> tiles_seen_{0};
    mutable std::atomic<std::uint64_t> faults_injected_{0};
    mutable std::atomic<std::uint64_t> stalls_injected_{0};
};

}  // namespace salo
