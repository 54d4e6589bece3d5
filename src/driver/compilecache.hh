/**
 * @file
 * The canonical compile key and per-thread compile provenance.
 *
 * compileCacheKey() names a compile request by its *structure*: the
 * written LIR of the loop (the canonical form `writeLoop` emits), the
 * array table, the machine configuration (every semantic field; never
 * the name), the technique, and the DriverOptions knobs that reach the
 * technique's codepath (a Selective-only knob does not fragment the
 * ModuloOnly key). The key is the full canonical string, not a lossy
 * hash, so two distinct requests never share one key. serveBatch uses
 * it to deduplicate identical requests within a batch.
 *
 * Every tryCompileLoop call compiles; nothing is cached across calls.
 */

#ifndef SELVEC_DRIVER_COMPILECACHE_HH
#define SELVEC_DRIVER_COMPILECACHE_HH

#include <cstdint>
#include <string>

#include "driver/driver.hh"

namespace selvec
{

/** Canonical key of a whole-compile request. */
std::string compileCacheKey(const Loop &loop, const ArrayTable &arrays,
                            const Machine &machine, Technique technique,
                            const DriverOptions &options);

/** No-op. Only perfbench/harness.cc still calls it; it goes when that
 *  harness next changes. */
void compileCacheClear();

/**
 * Where this thread's most recent tryCompileLoop result came from:
 * `None` until the thread runs a tryCompileLoop, `Compiled` after.
 * The serving layer reports this as each response's provenance.
 */
enum class CompileSource : uint8_t { None, Compiled };

/** Printable name ("none", "compiled"). */
const char *compileSourceName(CompileSource source);

/** This thread's most recent compile provenance. */
CompileSource lastCompileSource();

/** Record that this thread compiled (driver internal). */
void noteCompiled();

} // namespace selvec

#endif // SELVEC_DRIVER_COMPILECACHE_HH
