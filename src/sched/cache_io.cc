#include "sched/cache_io.hh"

#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>

#include "support/strings.hh"

namespace msq {

const char cacheFileMagic[4] = {'M', 'S', 'Q', 'C'};

namespace {

// ---------------------------------------------------------------------
// Little-endian byte codecs. Integers are assembled/disassembled with
// shifts — never memcpy'd — so the on-disk format is host-independent.
// ---------------------------------------------------------------------

struct ByteWriter
{
    std::vector<uint8_t> &out;

    void
    u8(uint8_t v)
    {
        out.push_back(v);
    }

    void
    u32(uint32_t v)
    {
        out.push_back(static_cast<uint8_t>(v));
        out.push_back(static_cast<uint8_t>(v >> 8));
        out.push_back(static_cast<uint8_t>(v >> 16));
        out.push_back(static_cast<uint8_t>(v >> 24));
    }

    void
    u64(uint64_t v)
    {
        u32(static_cast<uint32_t>(v));
        u32(static_cast<uint32_t>(v >> 32));
    }

    void
    str(const std::string &s)
    {
        u32(static_cast<uint32_t>(s.size()));
        out.insert(out.end(), s.begin(), s.end());
    }

    // transfer() verbs: write the field.
    void field(uint64_t v) { u64(v); }
    void field(Count c) { u64(c.clampU64()); }
    void field(const std::string &s) { str(s); }
    void field(ScheduleProvenance p) { u8(static_cast<uint8_t>(p)); }
    void fixed(uint64_t n) { u64(n); }
};

/** Bounds-checked reader: every accessor reports success so truncation
 * can never read past the buffer (the ok flag latches false). */
struct ByteReader
{
    const uint8_t *data;
    size_t size;
    size_t pos = 0;
    bool ok = true;

    bool
    need(size_t n)
    {
        if (!ok || size - pos < n) {
            ok = false;
            return false;
        }
        return true;
    }

    uint8_t
    u8()
    {
        if (!need(1))
            return 0;
        return data[pos++];
    }

    uint32_t
    u32()
    {
        if (!need(4))
            return 0;
        uint32_t v = static_cast<uint32_t>(data[pos]) |
                     (static_cast<uint32_t>(data[pos + 1]) << 8) |
                     (static_cast<uint32_t>(data[pos + 2]) << 16) |
                     (static_cast<uint32_t>(data[pos + 3]) << 24);
        pos += 4;
        return v;
    }

    uint64_t
    u64()
    {
        uint64_t lo = u32();
        uint64_t hi = u32();
        return lo | (hi << 32);
    }

    std::string
    str()
    {
        uint32_t len = u32();
        if (!need(len))
            return {};
        std::string s(reinterpret_cast<const char *>(data + pos), len);
        pos += len;
        return s;
    }

    // transfer() verbs: fill the field. An out-of-range provenance or a
    // length other than the one the format fixes latches ok false.
    void field(uint64_t &v) { v = u64(); }
    void field(Count &c) { c = u64(); }
    void field(std::string &s) { s = str(); }

    void
    field(ScheduleProvenance &p)
    {
        const uint8_t v = u8();
        if (v > static_cast<uint8_t>(ScheduleProvenance::Fallback))
            ok = false;
        else
            p = static_cast<ScheduleProvenance>(v);
    }

    void
    fixed(uint64_t n)
    {
        if (u64() != n)
            ok = false;
    }
};

/**
 * The one field list of a payload, for both directions: @p io is a
 * ByteWriter reading a const @p result, or a ByteReader filling one.
 */
template <typename IO, typename Result, typename Text>
void
transfer(IO &io, Result &result, Text &fingerprint, Text &arch_fingerprint)
{
    io.field(result.opCount);
    io.field(result.qubitCount);
    io.field(fingerprint);
    io.field(arch_fingerprint);

    auto &at = result.attempt;
    io.field(at.provenance);
    io.field(at.nodesExpanded);
    io.field(at.prunedByCriticalPath);
    io.field(at.prunedByResource);
    io.field(at.prunedByDominance);
    io.field(at.candidatesAnnotated);
    io.field(at.readyScanned);

    auto &rs = result.summary;
    for (const ResourceSummary::Member &m : ResourceSummary::members()) {
        if (m.count != nullptr)
            io.field(rs.*m.count);
        else
            io.field(rs.*m.peak);
    }
    io.fixed(rs.occupancy.size());
    for (auto &bucket : rs.occupancy)
        io.field(bucket);

    auto &mb = result.bounds;
    io.field(mb.criticalPath);
    io.field(mb.resource);
    io.field(mb.interval);
}

/**
 * Parse the guard fields back out of a memoization key
 * (leafScheduleKey: "hash|ops|qubits|w=width|fingerprint|d=..."), so a
 * loaded payload can be cross-checked against the key it is filed
 * under. @return false when the key does not have that shape.
 */
bool
parseKeyGuards(const std::string &key, uint64_t &ops, uint64_t &qubits,
               std::string &suffix)
{
    size_t p1 = key.find('|');
    if (p1 == std::string::npos)
        return false;
    size_t p2 = key.find('|', p1 + 1);
    if (p2 == std::string::npos)
        return false;
    size_t p3 = key.find('|', p2 + 1);
    if (p3 == std::string::npos)
        return false;
    size_t p4 = key.find('|', p3 + 1);
    if (p4 == std::string::npos)
        return false;
    const std::string_view view(key);
    if (!parseCount(view.substr(p1 + 1, p2 - p1 - 1), ops) ||
        !parseCount(view.substr(p2 + 1, p3 - p2 - 1), qubits))
        return false;
    if (key.compare(p3 + 1, 2, "w=") != 0)
        return false;
    suffix = key.substr(p4 + 1);
    return true;
}

} // anonymous namespace

void
serializeLeafResult(const LeafScheduleResult &result,
                    const std::string &fingerprint,
                    const std::string &arch_fingerprint,
                    std::vector<uint8_t> &out)
{
    ByteWriter w{out};
    transfer(w, result, fingerprint, arch_fingerprint);
}

std::shared_ptr<LeafScheduleResult>
deserializeLeafResult(const uint8_t *data, size_t size,
                      std::string &fingerprint,
                      std::string &arch_fingerprint)
{
    ByteReader r{data, size};
    auto result = std::make_shared<LeafScheduleResult>();
    transfer(r, *result, fingerprint, arch_fingerprint);
    // A payload that runs on past the bounds is not one this version
    // wrote.
    if (!r.ok || r.pos != r.size)
        return nullptr;
    return result;
}

size_t
LeafScheduleCache::saveTo(const std::string &path,
                          DiagnosticEngine *diags) const
{
    auto snapshot = snapshotEntries();

    std::vector<uint8_t> bytes;
    ByteWriter w{bytes};
    bytes.insert(bytes.end(), cacheFileMagic, cacheFileMagic + 4);
    w.u32(cacheFileVersion);
    w.u32(cacheFileEndianTag);
    w.u64(snapshot.size());

    std::vector<uint8_t> payload;
    for (const auto &[key, result] : snapshot) {
        payload.clear();
        std::string suffix;
        uint64_t keyOps = 0, keyQubits = 0;
        parseKeyGuards(key, keyOps, keyQubits, suffix);
        // The stored fingerprints are the key suffix's leading token
        // (scheduler identity) and the architecture fragment between it
        // and the trailing comm-mode token (leafScheduleKeySuffix:
        // "schedfp|<arch fingerprint>|mode", where the arch fragment
        // may itself contain '|'s).
        std::string fingerprint = suffix.substr(0, suffix.find('|'));
        std::string archFp;
        size_t fp_end = suffix.find('|');
        size_t mode_sep = suffix.rfind('|');
        if (fp_end != std::string::npos && mode_sep > fp_end)
            archFp = suffix.substr(fp_end + 1, mode_sep - fp_end - 1);
        serializeLeafResult(*result, fingerprint, archFp, payload);
        w.str(key);
        w.u64(payload.size());
        w.u64(fnv1a64(payload.data(), payload.size()));
        bytes.insert(bytes.end(), payload.begin(), payload.end());
    }

    // Atomic publish: write a sibling temp file, then rename over the
    // target, so a concurrent loadFrom never sees a half-written file.
    std::string tmp = path + ".tmp";
    {
        std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
        if (!out ||
            !out.write(reinterpret_cast<const char *>(bytes.data()),
                       static_cast<std::streamsize>(bytes.size()))) {
            if (diags)
                diags->report(DiagCode::CacheFileTruncated,
                              "cannot write cache file " + tmp);
            std::remove(tmp.c_str());
            return SIZE_MAX;
        }
    }
    if (std::rename(tmp.c_str(), path.c_str()) != 0) {
        if (diags)
            diags->report(DiagCode::CacheFileTruncated,
                          "cannot rename " + tmp + " to " + path);
        std::remove(tmp.c_str());
        return SIZE_MAX;
    }
    return snapshot.size();
}

size_t
LeafScheduleCache::loadFrom(const std::string &path,
                            DiagnosticEngine *diags)
{
    // The whole file in one sized read: loading it is most of a warm
    // daemon's start-up.
    std::error_code error; // file_size fails on anything but a file
    const uintmax_t size = std::filesystem::file_size(path, error);
    std::ifstream in(path, std::ios::binary);
    std::vector<uint8_t> bytes(error ? 0 : size);
    if (error || !in.read(reinterpret_cast<char *>(bytes.data()),
                          static_cast<std::streamsize>(bytes.size()))) {
        if (diags)
            diags->report(DiagCode::CacheFileTruncated,
                          "cannot read cache file " + path);
        return 0;
    }

    ByteReader r{bytes.data(), bytes.size()};
    if (!r.need(4) ||
        std::memcmp(bytes.data(), cacheFileMagic, 4) != 0) {
        if (diags)
            diags->report(DiagCode::CacheFileBadMagic,
                          path + " is not a leaf-cache file");
        return 0;
    }
    r.pos = 4;
    uint32_t version = r.u32();
    uint32_t endianTag = r.u32();
    if (!r.ok || version < cacheFileMinVersion ||
        version > cacheFileVersion ||
        endianTag != cacheFileEndianTag) {
        if (diags)
            diags->report(DiagCode::CacheFileBadVersion,
                          csprintf("%s: version %u (supported: %u-%u)",
                                   path.c_str(), version,
                                   cacheFileMinVersion,
                                   cacheFileVersion));
        return 0;
    }
    uint64_t entryCount = r.u64();

    size_t loaded = 0;
    for (uint64_t e = 0; e < entryCount; ++e) {
        std::string key = r.str();
        uint64_t payloadLen = r.u64();
        uint64_t checksum = r.u64();
        if (!r.ok || !r.need(payloadLen)) {
            if (diags)
                diags->report(
                    DiagCode::CacheFileTruncated,
                    csprintf("%s: file ends inside entry %llu of %llu",
                             path.c_str(),
                             static_cast<unsigned long long>(e),
                             static_cast<unsigned long long>(
                                 entryCount)));
            return loaded;
        }
        const uint8_t *payload = bytes.data() + r.pos;
        r.pos += payloadLen;

        if (fnv1a64(payload, payloadLen) != checksum) {
            if (diags)
                diags->report(DiagCode::CacheEntryCorrupt,
                              "checksum mismatch for key " + key);
            continue;
        }
        std::string fingerprint;
        std::string archFp;
        auto result = deserializeLeafResult(payload, payloadLen,
                                            fingerprint, archFp);
        if (!result) {
            if (diags)
                diags->report(DiagCode::CacheEntryCorrupt,
                              "invalid entry payload for key " + key);
            continue;
        }

        // Cross-check the payload's guard fields against the key the
        // entry is filed under: a forged or collided key must never
        // publish a result for the wrong module/scheduler.
        uint64_t keyOps = 0, keyQubits = 0;
        std::string suffix;
        if (!parseKeyGuards(key, keyOps, keyQubits, suffix)) {
            if (diags)
                diags->report(DiagCode::CacheEntryKeyMismatch,
                              "unparseable cache key " + key);
            continue;
        }
        bool guardOk = keyOps == result->opCount &&
                       keyQubits == result->qubitCount;
        if (guardOk && !fingerprint.empty() &&
            suffix.compare(0, fingerprint.size(), fingerprint) != 0)
            guardOk = false;
        // P007: an entry whose stored arch fingerprint disagrees with
        // its own key was saved under a different topology — refuse it
        // (an entry stored without one skips this check; its key still
        // guards everything the flat machine depends on).
        if (guardOk && !archFp.empty() &&
            suffix.find(archFp) == std::string::npos) {
            if (diags)
                diags->report(
                    DiagCode::CacheTopologyMismatch,
                    csprintf("stored arch fingerprint \"%s\" disagrees "
                             "with key %s; entry skipped",
                             archFp.c_str(), key.c_str()));
            continue;
        }
        if (!guardOk) {
            if (diags)
                diags->report(
                    DiagCode::CacheEntryKeyMismatch,
                    csprintf("stored guards (%llu ops, %llu qubits, "
                             "\"%s\") disagree with key %s",
                             static_cast<unsigned long long>(
                                 result->opCount),
                             static_cast<unsigned long long>(
                                 result->qubitCount),
                             fingerprint.c_str(), key.c_str()));
            continue;
        }

        if (insertLoaded(key, std::move(result)))
            ++loaded;
    }
    return loaded;
}

} // namespace msq
