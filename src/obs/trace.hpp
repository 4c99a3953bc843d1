/// \file trace.hpp
/// Span tracing for the whole pipeline.
///
/// One optional sink, the **Chrome trace**: a JSON array of `trace_event`
/// records loadable in Perfetto (https://ui.perfetto.dev) or
/// chrome://tracing. Enabled by the `ETCS_TRACE=<file>` environment variable
/// or programmatically via `Tracer::start(path)`. RAII `Span` objects emit
/// balanced "B"/"E" events; `instant()` and `counterValue()` emit point
/// events, whose args carry the run's summary values (e.g. `task.done`).
///
/// The disabled fast path is a single relaxed atomic load per call site, so
/// instrumentation can stay compiled in everywhere (the <2% overhead budget
/// of the scaling benchmark holds with tracing off).
#pragma once

#include <atomic>
#include <string>
#include <string_view>

namespace etcs::obs {

namespace detail {
// Hot-path flag; defined in trace.cpp and mutated only under its mutex.
extern std::atomic<bool> traceActive;
}  // namespace detail

/// True iff a Chrome trace file is currently open.
[[nodiscard]] inline bool tracingEnabled() noexcept {
    return detail::traceActive.load(std::memory_order_relaxed);
}

/// Static facade over the process-wide trace sink. `ETCS_TRACE` is read
/// once at process start; start()/stop() override it programmatically.
class Tracer {
public:
    /// Open `path` and begin writing a Chrome trace array. Replaces any
    /// trace already in progress (which is finalized first). Returns false
    /// when the file cannot be opened.
    static bool start(const std::string& path);

    /// Finalize (write the closing bracket) and close the trace file.
    /// Also invoked automatically at process exit (including std::exit(),
    /// via an atexit handler), so no ETCS_TRACE output is lost on early
    /// termination; events are additionally flushed as they are written.
    static void stop();

    /// Push buffered trace output to disk without finalizing anything.
    static void flush();

    /// Emit a begin/end duration event. Use the Span RAII wrapper instead of
    /// calling these directly; they are public for bindings and tests.
    /// `args` is either empty or a complete JSON object (e.g. R"({"k":1})").
    static void begin(const char* name, std::string_view args = {});
    static void end(const char* name);

    /// Emit an instant (point-in-time) event.
    static void instant(const char* name, std::string_view args = {});

    /// Emit a counter track sample (rendered as a graph in Perfetto).
    static void counterValue(const char* name, double value);
};

/// RAII scoped timer: emits a balanced begin/end event pair around its
/// lifetime. Constructing one while tracing is off costs a single atomic
/// load. `name` must outlive the span (string literals in practice).
class Span {
public:
    explicit Span(const char* name, std::string_view args = {}) {
        if (tracingEnabled()) {
            name_ = name;
            Tracer::begin(name, args);
        }
    }
    ~Span() {
        if (name_ != nullptr) {
            Tracer::end(name_);
        }
    }
    Span(const Span&) = delete;
    Span& operator=(const Span&) = delete;

private:
    const char* name_ = nullptr;
};

/// JSON string escaping for values interpolated into JSON output (quotes,
/// backslashes, every control character).
[[nodiscard]] std::string jsonEscape(std::string_view text);

}  // namespace etcs::obs
