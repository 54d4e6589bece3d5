#include "support/stats.hh"

#include <chrono>

#include "support/logging.hh"

namespace selvec
{

namespace
{

int64_t
nowNs()
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

} // anonymous namespace

void
StatsRegistry::add(const std::string &key, int64_t delta)
{
    std::lock_guard<std::mutex> lock(mutex);
    Stat &s = stats[key];
    s.kind = StatKind::Counter;
    s.value += delta;
}

void
StatsRegistry::setGauge(const std::string &key, int64_t value)
{
    std::lock_guard<std::mutex> lock(mutex);
    Stat &s = stats[key];
    s.kind = StatKind::Gauge;
    s.value = value;
}

void
StatsRegistry::maxGauge(const std::string &key, int64_t value)
{
    std::lock_guard<std::mutex> lock(mutex);
    Stat &s = stats[key];
    s.kind = StatKind::MaxGauge;
    if (value > s.value)
        s.value = value;
}

void
StatsRegistry::addTimerNs(const std::string &key, int64_t ns)
{
    std::lock_guard<std::mutex> lock(mutex);
    Stat &s = stats[key];
    s.kind = StatKind::Timer;
    s.value += ns;
    s.samples += 1;
}

std::vector<StatEntry>
StatsRegistry::snapshot() const
{
    std::lock_guard<std::mutex> lock(mutex);
    std::vector<StatEntry> out;
    out.reserve(stats.size());
    for (const auto &[key, s] : stats)
        out.push_back(StatEntry{key, s.kind, s.value, s.samples});
    return out;
}

int64_t
StatsRegistry::value(const std::string &key) const
{
    std::lock_guard<std::mutex> lock(mutex);
    auto it = stats.find(key);
    return it == stats.end() ? 0 : it->second.value;
}

void
StatsRegistry::reset()
{
    std::lock_guard<std::mutex> lock(mutex);
    stats.clear();
}

void
StatsRegistry::mergeFrom(const StatsRegistry &other)
{
    // Snapshot first: self-merge aside, taking both mutexes in a
    // fixed order is more ceremony than copying a small map.
    std::vector<StatEntry> entries = other.snapshot();
    std::lock_guard<std::mutex> lock(mutex);
    for (const StatEntry &e : entries) {
        Stat &s = stats[e.key];
        s.kind = e.kind;
        switch (e.kind) {
          case StatKind::Counter:
            s.value += e.value;
            break;
          case StatKind::Gauge:
            s.value = e.value;
            break;
          case StatKind::MaxGauge:
            if (e.value > s.value)
                s.value = e.value;
            break;
          case StatKind::Timer:
            s.value += e.value;
            s.samples += e.samples;
            break;
        }
    }
}

JsonValue
StatsRegistry::toJson(bool includeTimerNs) const
{
    JsonValue root = JsonValue::object();
    for (const StatEntry &e : snapshot()) {
        // Walk/create the object spine named by the dotted prefix.
        JsonValue *node = &root;
        size_t start = 0;
        while (true) {
            size_t dot = e.key.find('.', start);
            if (dot == std::string::npos)
                break;
            std::string part = e.key.substr(start, dot - start);
            if (node->find(part) == nullptr ||
                !node->find(part)->isObject()) {
                node->set(part, JsonValue::object());
            }
            // set() keeps the address stable only until the next
            // insertion into this node, so re-find after it.
            node = const_cast<JsonValue *>(node->find(part));
            start = dot + 1;
        }
        std::string leaf = e.key.substr(start);
        if (e.kind == StatKind::Timer) {
            JsonValue timer = JsonValue::object();
            timer.set("total_ns", includeTimerNs ? e.value : int64_t{0});
            timer.set("samples", e.samples);
            node->set(leaf, std::move(timer));
        } else {
            node->set(leaf, e.value);
        }
    }
    return root;
}

namespace
{

thread_local StatsRegistry *tls_stats_sink = nullptr;

} // anonymous namespace

StatsRegistry &
processStats()
{
    static StatsRegistry registry;
    return registry;
}

StatsRegistry &
globalStats()
{
    return tls_stats_sink != nullptr ? *tls_stats_sink : processStats();
}

ScopedStatsSink::ScopedStatsSink(StatsRegistry &sink)
    : previous(tls_stats_sink)
{
    tls_stats_sink = &sink;
}

ScopedStatsSink::~ScopedStatsSink()
{
    tls_stats_sink = previous;
}

ScopedStatTimer::ScopedStatTimer(const char *key)
    : key(key), startNs(nowNs())
{
}

ScopedStatTimer::~ScopedStatTimer()
{
    globalStats().addTimerNs(key, nowNs() - startNs);
}

} // namespace selvec
