/**
 * @file
 * SplitMix64 — the standard 64-bit finalizer, shared by every component
 * that needs a *stateless* deterministic decision keyed on integers
 * (fault-injection firing, retry jitter): hashing (seed ^ index) gives
 * a reproducible per-occurrence draw with no shared RNG whose draw order
 * would depend on thread interleaving.
 */

#ifndef CLM_UTIL_MIX_HPP
#define CLM_UTIL_MIX_HPP

#include <cstdint>

namespace clm {

/** SplitMix64 finalizer: avalanche a 64-bit value. */
inline uint64_t
splitmix64(uint64_t x)
{
    x += 0x9e3779b97f4a7c15ull;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
    return x ^ (x >> 31);
}

/** Map a mixed 64-bit value to a uniform double in [0, 1). */
inline double
mixToUnit(uint64_t x)
{
    return static_cast<double>(x >> 11) * 0x1.0p-53;
}

} // namespace clm

#endif // CLM_UTIL_MIX_HPP
