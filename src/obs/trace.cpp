#include "obs/trace.hpp"

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <mutex>

namespace etcs::obs {

namespace detail {
std::atomic<bool> traceActive{false};
}  // namespace detail

namespace {

using Clock = std::chrono::steady_clock;

/// Stable small integer per thread for the Chrome "tid" field.
int threadId() {
    static std::atomic<int> nextId{1};
    thread_local const int id = nextId.fetch_add(1, std::memory_order_relaxed);
    return id;
}

/// All mutable trace state, guarded by `mutex`. A single namespace-scope
/// instance reads the environment on construction and finalizes the trace
/// file on destruction, so `ETCS_TRACE=out.json some_binary` needs no
/// programmatic setup.
struct Sink {
    std::mutex mutex;
    std::ofstream traceFile;
    bool firstEvent = true;
    Clock::time_point epoch = Clock::now();

    Sink() {
        if (const char* path = std::getenv("ETCS_TRACE"); path != nullptr && *path != '\0') {
            startLocked(path);
        }
    }

    ~Sink() { stopLocked(); }

    bool startLocked(const std::string& path) {
        stopLocked();
        traceFile.open(path);
        if (!traceFile) {
            return false;
        }
        traceFile << "[";
        firstEvent = true;
        epoch = Clock::now();
        detail::traceActive.store(true, std::memory_order_relaxed);
        return true;
    }

    void stopLocked() {
        if (!traceFile.is_open()) {
            return;
        }
        detail::traceActive.store(false, std::memory_order_relaxed);
        traceFile << "\n]\n";
        traceFile.close();
    }

    [[nodiscard]] double microsSinceEpoch() const {
        return std::chrono::duration<double, std::micro>(Clock::now() - epoch).count();
    }

    /// Write one event record; `body` is everything after the common
    /// name/ph/ts/pid/tid fields (empty or ",\"args\":{...}").
    void event(const char* name, char phase, std::string_view body) {
        const std::scoped_lock lock(mutex);
        if (!traceFile.is_open()) {
            return;  // raced with stop()
        }
        traceFile << (firstEvent ? "\n" : ",\n");
        firstEvent = false;
        traceFile << "{\"name\":\"" << jsonEscape(name) << "\",\"cat\":\"etcs\",\"ph\":\""
                  << phase << "\",\"ts\":" << microsSinceEpoch() << ",\"pid\":1,\"tid\":"
                  << threadId();
        if (phase == 'i') {
            traceFile << ",\"s\":\"t\"";
        }
        traceFile << body << "}";
        // Flush per event: a trace of a crashed or aborted run is readable up
        // to the last completed event instead of losing the buffered tail.
        traceFile.flush();
    }

    void flushLocked() {
        if (traceFile.is_open()) {
            traceFile.flush();
        }
    }
};

Sink& sink() {
    static Sink instance;
    return instance;
}

// Force the sink (and thus ETCS_TRACE handling) to life at process start,
// not at first instrumented call. The atexit handler is registered AFTER the
// Sink instance is constructed, so it runs BEFORE the static destructor:
// std::exit() paths finalize the trace (closing "]") while the object is
// still alive, and the destructor's stopLocked() then sees a closed file.
[[maybe_unused]] const bool kSinkInitialized = [] {
    sink();
    std::atexit([] { Tracer::stop(); });
    return true;
}();

}  // namespace

std::string jsonEscape(std::string_view text) {
    std::string out;
    out.reserve(text.size());
    for (char c : text) {
        switch (c) {
            case '"': out += "\\\""; break;
            case '\\': out += "\\\\"; break;
            case '\n': out += "\\n"; break;
            case '\r': out += "\\r"; break;
            case '\t': out += "\\t"; break;
            default:
                if (static_cast<unsigned char>(c) < 0x20) {
                    char buf[8];
                    std::snprintf(buf, sizeof(buf), "\\u%04x", c);
                    out += buf;
                } else {
                    out.push_back(c);
                }
        }
    }
    return out;
}

bool Tracer::start(const std::string& path) {
    Sink& s = sink();
    const std::scoped_lock lock(s.mutex);
    return s.startLocked(path);
}

void Tracer::stop() {
    Sink& s = sink();
    const std::scoped_lock lock(s.mutex);
    s.stopLocked();
}

void Tracer::flush() {
    Sink& s = sink();
    const std::scoped_lock lock(s.mutex);
    s.flushLocked();
}

void Tracer::begin(const char* name, std::string_view args) {
    if (!tracingEnabled()) {
        return;
    }
    std::string body;
    if (!args.empty()) {
        body = ",\"args\":";
        body += args;
    }
    sink().event(name, 'B', body);
}

void Tracer::end(const char* name) {
    if (!tracingEnabled()) {
        return;
    }
    sink().event(name, 'E', {});
}

void Tracer::instant(const char* name, std::string_view args) {
    if (!tracingEnabled()) {
        return;
    }
    std::string body;
    if (!args.empty()) {
        body = ",\"args\":";
        body += args;
    }
    sink().event(name, 'i', body);
}

void Tracer::counterValue(const char* name, double value) {
    if (!tracingEnabled()) {
        return;
    }
    std::string body = ",\"args\":{\"value\":";
    body += std::to_string(value);
    body += "}";
    sink().event(name, 'C', body);
}

}  // namespace etcs::obs
