#include "sched/leaf_cache.hh"

#include <algorithm>
#include <charconv>

namespace msq {

namespace {

/** Append @p value in decimal (printf's %llu / %u). */
void
appendDecimal(std::string &out, uint64_t value)
{
    char digits[20];
    char *end =
        std::to_chars(digits, digits + sizeof digits, value).ptr;
    out.append(digits, end);
}

/** Append @p value as 16 zero-padded lowercase hex digits (printf's
 * %016llx). */
void
appendHex16(std::string &out, uint64_t value)
{
    char digits[16];
    char *end =
        std::to_chars(digits, digits + sizeof digits, value, 16).ptr;
    const auto len = static_cast<size_t>(end - digits);
    out.append(16 - len, '0');
    out.append(digits, len);
}

} // anonymous namespace

std::string
leafScheduleKeySuffix(const std::string &scheduler_fingerprint,
                      const MultiSimdArch &arch, CommMode mode)
{
    // MultiSimdArch::fingerprint() is the single source of truth for
    // the architecture part: byte-identical to the historical
    // "d=..|lm=..|epr=.." suffix on the flat machine, extended with the
    // topology fragment on multi-core machines.
    std::string key = scheduler_fingerprint;
    key += '|';
    key += arch.fingerprint();
    key += '|';
    key += commModeName(mode);
    return key;
}

std::string
leafScheduleKeyPrefix(uint64_t structural_hash, uint64_t ops,
                      uint64_t qubits)
{
    std::string key;
    key.reserve(16 + 2 * (1 + 20)); // hash and two 20-digit counts
    appendHex16(key, structural_hash);
    key += '|';
    appendDecimal(key, ops);
    key += '|';
    appendDecimal(key, qubits);
    return key;
}

std::string
leafScheduleKeyPrefix(const Module &mod)
{
    return leafScheduleKeyPrefix(mod.structuralHash(), mod.numOps(),
                                 mod.numQubits());
}

std::string
leafScheduleKey(const std::string &prefix, unsigned width,
                const std::string &suffix)
{
    std::string key;
    key.reserve(prefix.size() + 3 + 10 + 1 + suffix.size());
    key += prefix;
    key += "|w=";
    appendDecimal(key, width);
    key += '|';
    key += suffix;
    return key;
}

std::string
leafScheduleKey(const Module &mod, unsigned width,
                const std::string &suffix)
{
    return leafScheduleKey(leafScheduleKeyPrefix(mod), width, suffix);
}

std::shared_ptr<const LeafScheduleResult>
LeafScheduleCache::lookup(const std::string &key)
{
    std::lock_guard<std::mutex> lock(mutex);
    auto it = entries.find(key);
    if (it == entries.end()) {
        misses_.fetch_add(1, std::memory_order_relaxed);
        return nullptr;
    }
    hits_.fetch_add(1, std::memory_order_relaxed);
    return it->second;
}

std::shared_ptr<const LeafScheduleResult>
LeafScheduleCache::insert(const std::string &key,
                          std::shared_ptr<const LeafScheduleResult> result)
{
    std::lock_guard<std::mutex> lock(mutex);
    auto [it, inserted] = entries.emplace(key, std::move(result));
    if (!inserted) {
        // Lost a compute race: another thread published this key after
        // our lookup missed. Reclassify our miss as a hit so the final
        // tallies are thread-count-invariant — every key ends up with
        // exactly one miss (the winning insert) and one hit per other
        // access, exactly like a sequential run (DESIGN.md §9).
        hits_.fetch_add(1, std::memory_order_relaxed);
        misses_.fetch_sub(1, std::memory_order_relaxed);
    }
    return it->second;
}

bool
LeafScheduleCache::insertLoaded(
    const std::string &key,
    std::shared_ptr<const LeafScheduleResult> result)
{
    std::lock_guard<std::mutex> lock(mutex);
    auto [it, inserted] = entries.emplace(key, std::move(result));
    (void)it;
    if (inserted)
        loads_.fetch_add(1, std::memory_order_relaxed);
    // A losing load is NOT a lost compute race: no lookup missed before
    // it, so there is no miss to reclassify and the counters stay put.
    return inserted;
}

bool
LeafScheduleCache::remove(const std::string &key)
{
    std::lock_guard<std::mutex> lock(mutex);
    return entries.erase(key) > 0;
}

double
LeafScheduleCache::hitRate() const
{
    uint64_t h = hits_.load();
    uint64_t m = misses_.load();
    if (h + m == 0)
        return 0.0;
    return static_cast<double>(h) / static_cast<double>(h + m);
}

size_t
LeafScheduleCache::size() const
{
    std::lock_guard<std::mutex> lock(mutex);
    return entries.size();
}

std::vector<std::pair<std::string,
                      std::shared_ptr<const LeafScheduleResult>>>
LeafScheduleCache::snapshotEntries() const
{
    std::vector<std::pair<std::string,
                          std::shared_ptr<const LeafScheduleResult>>>
        out;
    {
        std::lock_guard<std::mutex> lock(mutex);
        out.reserve(entries.size());
        for (const auto &[key, value] : entries)
            out.emplace_back(key, value);
    }
    std::sort(out.begin(), out.end(),
              [](const auto &a, const auto &b) { return a.first < b.first; });
    return out;
}

} // namespace msq
