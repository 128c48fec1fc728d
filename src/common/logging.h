// Minimal leveled logger for the library and the experiment harnesses.
//
// The logger is deliberately tiny: benches run thousands of simulated
// seconds, so anything chatty must be gated behind Level::kDebug.
#pragma once

#include <atomic>
#include <iostream>
#include <memory>
#include <sstream>
#include <string>

#include "common/mutex.h"

namespace prepare {

enum class LogLevel { kDebug = 0, kInfo = 1, kWarn = 2, kError = 3, kOff = 4 };

/// Parses a level name ("debug", "info", "warn", "error", "off" —
/// case-insensitive); returns `fallback` for null/unknown input.
LogLevel parse_log_level(const char* name, LogLevel fallback);

/// Process-wide log configuration, safe for concurrent use: records may
/// be emitted from worker threads while another thread reconfigures the
/// level or sink.
///
/// The initial level comes from the PREPARE_LOG_LEVEL environment
/// variable (read once at startup; default "warn"). The sink defaults
/// to std::cerr and can be redirected, e.g. into a file or a test
/// capture buffer; the sink object must outlive every record emitted
/// through it. Each record is written to the sink as one insertion
/// under the emission mutex, so records never interleave and a custom
/// sink (an ostringstream is not internally synchronized) needs no
/// locking of its own.
class Logger {
 public:
  // Lock-free level gate: the level is a single word with no invariant
  // coupling it to other state, and it is read on every (mostly
  // disabled) log site — a relaxed atomic load keeps that check at a
  // couple of instructions instead of a lock acquisition.
  static LogLevel level() { return level_.load(std::memory_order_relaxed); }
  static void set_level(LogLevel level) {
    level_.store(level, std::memory_order_relaxed);
  }

  static std::ostream* sink();
  /// Routes subsequent records to `sink` (never null; pass &std::cerr
  /// to restore the default).
  static void set_sink(std::ostream* sink);

  /// Writes one formatted record to the sink under the emission mutex.
  static void emit(const std::string& text);

  /// Sink for one formatted record; flushes on destruction. A record
  /// below the level builds no stream, so it costs only the level check.
  class Record {
   public:
    Record(LogLevel level, const char* tag) {
      if (level < Logger::level()) return;
      os_ = std::make_unique<std::ostringstream>();
      *os_ << "[" << name(level) << "] " << tag << ": ";
    }
    ~Record() {
      if (os_) {
        *os_ << "\n";
        Logger::emit(os_->str());
      }
    }
    Record(const Record&) = delete;
    Record& operator=(const Record&) = delete;

    template <typename T>
    Record& operator<<(const T& value) {
      if (os_) *os_ << value;
      return *this;
    }

   private:
    static const char* name(LogLevel level) {
      switch (level) {
        case LogLevel::kDebug: return "debug";
        case LogLevel::kInfo: return "info";
        case LogLevel::kWarn: return "warn";
        case LogLevel::kError: return "error";
        default: return "?";
      }
    }
    std::unique_ptr<std::ostringstream> os_;  ///< non-null iff enabled
  };

 private:
  static std::atomic<LogLevel> level_;
  static Mutex sink_mu_;
  static std::ostream* sink_ PREPARE_GUARDED_BY(sink_mu_);
};

}  // namespace prepare

#define PREPARE_LOG(level, tag) ::prepare::Logger::Record(level, tag)
#define PREPARE_DEBUG(tag) PREPARE_LOG(::prepare::LogLevel::kDebug, tag)
#define PREPARE_INFO(tag) PREPARE_LOG(::prepare::LogLevel::kInfo, tag)
#define PREPARE_WARN(tag) PREPARE_LOG(::prepare::LogLevel::kWarn, tag)
#define PREPARE_ERROR(tag) PREPARE_LOG(::prepare::LogLevel::kError, tag)
