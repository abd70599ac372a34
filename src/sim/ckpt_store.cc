#include "sim/ckpt_store.h"

#include <atomic>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <deque>
#include <iterator>
#include <mutex>
#include <unordered_map>

#include <dirent.h>
#include <sys/stat.h>
#include <unistd.h>

#include "common/log.h"
#include "common/lz.h"
#include "sim/checkpoint.h"

namespace pfm {

namespace {

/** Diagnostic in the same shape as CkptReader::fail(). */
[[noreturn]] void
storeFail(const std::string& ckpt_path, const std::string& section,
          const std::string& what)
{
    pfm_fatal("checkpoint '%s': %s (section '%s')", ckpt_path.c_str(),
              what.c_str(), section.c_str());
}

/** Serialize a blob header into exactly kCkptBlobHeaderBytes at @p out. */
void
packBlobHeader(std::uint8_t* out, const CkptBlobMeta& meta)
{
    std::size_t off = 0;
    auto put = [&](const void* p, std::size_t n) {
        std::memcpy(out + off, p, n);
        off += n;
    };
    put(&kCkptBlobMagic, sizeof kCkptBlobMagic);
    put(&meta.raw_len, sizeof meta.raw_len);
    put(&meta.raw_crc, sizeof meta.raw_crc);
    put(&meta.flags, sizeof meta.flags);
    put(&meta.stored_len, sizeof meta.stored_len);
    pfm_assert(off == kCkptBlobHeaderBytes, "blob header size drift");
}

/** Parse a blob header; false when @p n is too short or the magic is off. */
bool
unpackBlobHeader(const std::uint8_t* in, std::size_t n, CkptBlobMeta& meta)
{
    if (n < kCkptBlobHeaderBytes)
        return false;
    std::size_t off = 0;
    auto get = [&](void* p, std::size_t sz) {
        std::memcpy(p, in + off, sz);
        off += sz;
    };
    std::uint32_t magic = 0;
    get(&magic, sizeof magic);
    if (magic != kCkptBlobMagic)
        return false;
    get(&meta.raw_len, sizeof meta.raw_len);
    get(&meta.raw_crc, sizeof meta.raw_crc);
    get(&meta.flags, sizeof meta.flags);
    get(&meta.stored_len, sizeof meta.stored_len);
    return true;
}

struct FileBytes {
    bool ok = false;
    std::vector<std::uint8_t> data;
};

/** Slurp a whole file; ok=false when it cannot be opened or read. */
FileBytes
readWholeFile(const std::string& path)
{
    FileBytes r;
    std::FILE* f = std::fopen(path.c_str(), "rb");
    if (!f)
        return r;
    if (std::fseek(f, 0, SEEK_END) == 0) {
        long size = std::ftell(f);
        if (size >= 0 && std::fseek(f, 0, SEEK_SET) == 0) {
            r.data.resize(static_cast<std::size_t>(size));
            std::size_t got = r.data.empty()
                ? 0
                : std::fread(r.data.data(), 1, r.data.size(), f);
            r.ok = got == r.data.size();
        }
    }
    std::fclose(f);
    if (!r.ok)
        r.data.clear();
    return r;
}

/**
 * Process-wide cache of decoded blob payloads. Weak entries let every
 * in-flight restore share one buffer; the small strong ring keeps the
 * hottest blobs (the shared bare-core engine image, above all) decoded
 * across back-to-back restores even when no lease holds them. Loads and
 * decompression run outside the lock — a racing pair of threads may decode
 * the same blob twice, but the result is identical and the common case
 * (N legs restoring one warmup) hits the cache after the first.
 */
class HotBlobCache
{
  public:
    struct CachedBlob {
        std::uint64_t hash = 0;
        CkptBlobMeta meta;
        std::shared_ptr<const std::vector<std::uint8_t>> raw;
    };

    bool
    lookup(const std::string& path, CachedBlob& out)
    {
        std::lock_guard<std::mutex> lk(mu_);
        auto it = map_.find(path);
        if (it == map_.end())
            return false;
        auto raw = it->second.raw.lock();
        if (!raw) {
            map_.erase(it);
            return false;
        }
        out.hash = it->second.hash;
        out.meta = it->second.meta;
        out.raw = std::move(raw);
        return true;
    }

    void
    insert(const std::string& path, const CachedBlob& blob)
    {
        std::lock_guard<std::mutex> lk(mu_);
        map_[path] = Entry{blob.hash, blob.meta, blob.raw};
        ring_.push_back(blob.raw);
        while (ring_.size() > kRing)
            ring_.pop_front();
        if (map_.size() > kSweepAt) {
            for (auto it = map_.begin(); it != map_.end();)
                it = it->second.raw.expired() ? map_.erase(it)
                                              : std::next(it);
        }
    }

  private:
    struct Entry {
        std::uint64_t hash = 0;
        CkptBlobMeta meta;
        std::weak_ptr<const std::vector<std::uint8_t>> raw;
    };

    static constexpr std::size_t kRing = 8;     ///< strong refs kept hot
    static constexpr std::size_t kSweepAt = 64; ///< expired-entry GC bound

    std::mutex mu_;
    std::unordered_map<std::string, Entry> map_;
    std::deque<std::shared_ptr<const std::vector<std::uint8_t>>> ring_;
};

HotBlobCache&
blobCache()
{
    static HotBlobCache cache;
    return cache;
}

} // namespace

std::uint64_t
ckptHash64(const void* data, std::size_t n) noexcept
{
    // FNV-1a 64: cheap, dependency-free, and good enough for content
    // addressing given the raw_len + CRC cross-check on every reference.
    const auto* p = static_cast<const std::uint8_t*>(data);
    std::uint64_t h = 0xCBF29CE484222325ull;
    while (n--) {
        h ^= *p++;
        h *= 0x100000001B3ull;
    }
    return h;
}

std::string
ckptBlobName(std::uint64_t hash)
{
    char buf[32];
    std::snprintf(buf, sizeof buf, "%016llx.blob",
                  static_cast<unsigned long long>(hash));
    return buf;
}

void
ckptStorePut(const std::string& store_dir, std::uint64_t hash,
             const CkptBlobMeta& meta, const std::uint8_t* stored,
             const std::string& ckpt_path, const std::string& section)
{
    if (::mkdir(store_dir.c_str(), 0777) != 0 && errno != EEXIST)
        pfm_fatal("checkpoint '%s': cannot create store directory '%s'",
                  ckpt_path.c_str(), store_dir.c_str());

    const std::string path = store_dir + "/" + ckptBlobName(hash);

    // Dedup fast path: an existing blob with a matching header is this
    // exact content (same hash, length, CRC) — skip the write. A header
    // that disagrees means a hash collision or corrupted store; aliasing
    // it silently would hand a later restore the wrong section bytes.
    std::uint8_t hdr[kCkptBlobHeaderBytes];
    std::FILE* f = std::fopen(path.c_str(), "rb");
    if (f) {
        std::size_t got = std::fread(hdr, 1, sizeof hdr, f);
        std::fclose(f);
        CkptBlobMeta found;
        if (got == sizeof hdr && unpackBlobHeader(hdr, sizeof hdr, found) &&
            found == meta)
            return;
        storeFail(ckpt_path, section,
                  "blob '" + ckptBlobName(hash) +
                      "' already exists with different metadata (hash "
                      "collision or corrupt store)");
    }

    // Temp name is unique per publish — pid for cross-process shards,
    // plus a process-wide counter for same-process threads (sharded
    // sweep warmup legs and daemon workers publish concurrently from one
    // pid). Sharing a temp would let two publishers truncate each
    // other's half-written bytes. The rename is atomic, so the final
    // path only ever holds a complete blob; losing the race just
    // replaces identical bytes.
    static std::atomic<unsigned long> publish_seq{0};
    const std::string tmp =
        path + ".tmp." + std::to_string(static_cast<long>(::getpid())) +
        "." +
        std::to_string(publish_seq.fetch_add(1, std::memory_order_relaxed));
    f = std::fopen(tmp.c_str(), "wb");
    if (!f)
        pfm_fatal("checkpoint '%s': cannot open blob temp '%s' for writing",
                  ckpt_path.c_str(), tmp.c_str());
    packBlobHeader(hdr, meta);
    std::size_t written = std::fwrite(hdr, 1, sizeof hdr, f);
    if (meta.stored_len)
        written += std::fwrite(stored, 1,
                               static_cast<std::size_t>(meta.stored_len), f);
    bool close_ok = std::fclose(f) == 0;
    if (written != sizeof hdr + meta.stored_len || !close_ok) {
        std::remove(tmp.c_str());
        pfm_fatal("checkpoint '%s': short write publishing blob '%s'",
                  ckpt_path.c_str(), path.c_str());
    }
    if (std::rename(tmp.c_str(), path.c_str()) != 0) {
        std::remove(tmp.c_str());
        // A concurrent publisher may have raced us in a way the
        // filesystem would not absorb; the loss is benign iff the final
        // blob now exists with exactly our metadata.
        f = std::fopen(path.c_str(), "rb");
        if (f) {
            std::size_t got = std::fread(hdr, 1, sizeof hdr, f);
            std::fclose(f);
            CkptBlobMeta found;
            if (got == sizeof hdr &&
                unpackBlobHeader(hdr, sizeof hdr, found) && found == meta)
                return;
        }
        pfm_fatal("checkpoint '%s': cannot rename blob '%s' into place",
                  ckpt_path.c_str(), path.c_str());
    }
}

std::shared_ptr<const std::vector<std::uint8_t>>
ckptBlobLoad(const std::string& blob_path, std::uint64_t hash,
             const CkptBlobMeta& meta, const std::string& ckpt_path,
             const std::string& section)
{
    HotBlobCache::CachedBlob cached;
    if (blobCache().lookup(blob_path, cached)) {
        if (cached.hash != hash || !(cached.meta == meta))
            storeFail(ckpt_path, section,
                      "manifest metadata disagrees with cached blob '" +
                          blob_path + "'");
        return cached.raw;
    }

    FileBytes file = readWholeFile(blob_path);
    if (!file.ok)
        storeFail(ckpt_path, section,
                  "missing blob '" + blob_path + "' referenced by manifest");
    CkptBlobMeta found;
    if (!unpackBlobHeader(file.data.data(), file.data.size(), found))
        storeFail(ckpt_path, section,
                  "blob '" + blob_path + "' is not a PFM blob");
    if (!(found == meta))
        storeFail(ckpt_path, section,
                  "blob '" + blob_path +
                      "' metadata disagrees with manifest");
    if (file.data.size() != kCkptBlobHeaderBytes + meta.stored_len)
        storeFail(ckpt_path, section,
                  "truncated blob '" + blob_path + "' (" +
                      std::to_string(file.data.size()) + " bytes, " +
                      std::to_string(kCkptBlobHeaderBytes +
                                     meta.stored_len) +
                      " expected)");

    const std::uint8_t* stored = file.data.data() + kCkptBlobHeaderBytes;
    auto raw = std::make_shared<std::vector<std::uint8_t>>();
    if (meta.flags & kCkptBlobCompressed) {
        // Bound the declared raw length before trusting it with a
        // resize: corruption must fail by name, not as a bad_alloc.
        if (meta.raw_len > lz::maxRawLen(meta.stored_len))
            storeFail(ckpt_path, section,
                      "implausible raw length " +
                          std::to_string(meta.raw_len) + " in blob '" +
                          blob_path + "'");
        raw->resize(static_cast<std::size_t>(meta.raw_len));
        if (!lz::decompress(stored,
                            static_cast<std::size_t>(meta.stored_len),
                            raw->data(), raw->size()))
            storeFail(ckpt_path, section,
                      "corrupt compressed blob '" + blob_path + "'");
    } else {
        if (meta.stored_len != meta.raw_len)
            storeFail(ckpt_path, section,
                      "blob '" + blob_path +
                          "' raw/stored length mismatch");
        raw->assign(stored,
                    stored + static_cast<std::size_t>(meta.stored_len));
    }
    if (ckptCrc32(raw->data(), raw->size()) != meta.raw_crc)
        storeFail(ckpt_path, section,
                  "CRC mismatch in blob '" + blob_path + "'");
    if (ckptHash64(raw->data(), raw->size()) != hash)
        storeFail(ckpt_path, section,
                  "content hash mismatch in blob '" + blob_path + "'");

    HotBlobCache::CachedBlob blob{hash, meta, raw};
    blobCache().insert(blob_path, blob);
    return raw;
}

std::uint64_t
ckptStoreDirBytes(const std::string& dir)
{
    DIR* d = ::opendir(dir.c_str());
    if (!d)
        return 0;
    std::uint64_t total = 0;
    while (struct dirent* e = ::readdir(d)) {
        std::string name = e->d_name;
        if (name.size() < 5 || name.compare(name.size() - 5, 5, ".blob"))
            continue;
        struct stat st;
        if (::stat((dir + "/" + name).c_str(), &st) == 0)
            total += static_cast<std::uint64_t>(st.st_size);
    }
    ::closedir(d);
    return total;
}

void
ckptStoreRemoveDir(const std::string& dir)
{
    DIR* d = ::opendir(dir.c_str());
    if (!d)
        return;
    std::vector<std::string> names;
    while (struct dirent* e = ::readdir(d)) {
        std::string name = e->d_name;
        if (name.find(".blob") != std::string::npos)
            names.push_back(name); // *.blob, stray *.blob.tmp.<pid>.<seq>
    }
    ::closedir(d);
    for (const std::string& name : names)
        std::remove((dir + "/" + name).c_str());
    ::rmdir(dir.c_str());
}

namespace {

/** Bounded cursor over a byte buffer for the lenient inspector. */
struct Cursor {
    const std::uint8_t* p;
    std::size_t n;
    std::size_t off = 0;

    bool
    read(void* out, std::size_t sz)
    {
        if (sz > n - off)
            return false;
        std::memcpy(out, p + off, sz);
        off += sz;
        return true;
    }

    template <typename T>
    bool
    get(T& v)
    {
        return read(&v, sizeof v);
    }

    bool
    getString(std::string& s)
    {
        std::uint32_t len;
        if (!get(len) || len > n - off)
            return false;
        s.assign(reinterpret_cast<const char*>(p + off), len);
        off += len;
        return true;
    }
};

} // namespace

std::string
ckptDirOf(const std::string& path)
{
    std::size_t slash = path.find_last_of('/');
    return slash == std::string::npos ? "." : path.substr(0, slash);
}

CkptFileInfo
inspectCkptFile(const std::string& path)
{
    CkptFileInfo info;
    FileBytes file = readWholeFile(path);
    info.file_bytes = file.data.size();
    info.logical_bytes = info.file_bytes; // fallback for junk/unreadable
    if (!file.ok)
        return info;

    Cursor c{file.data.data(), file.data.size()};
    std::uint64_t magic;
    if (!c.get(magic) || magic != kCkptManifestMagic)
        return info;

    // Header fields, store subdir, then per-section entries.
    CkptFileInfo m;
    m.manifest = true;
    m.file_bytes = info.file_bytes;
    std::string workload;
    std::string component;
    std::string store_rel;
    std::uint64_t u64;
    std::uint32_t nsec;
    if (!c.get(m.version) || !c.get(u64) || !c.getString(workload) ||
        !c.getString(component) || !c.get(u64) || !c.getString(store_rel) ||
        !c.get(nsec))
        return info;
    const std::string store_dir = ckptDirOf(path) + "/" + store_rel;
    for (std::uint32_t i = 0; i < nsec; ++i) {
        std::string name;
        CkptBlobRef ref;
        CkptBlobMeta meta;
        if (!c.getString(name) || !c.get(ref.hash) || !c.get(meta.raw_len) ||
            !c.get(meta.raw_crc) || !c.get(meta.flags) ||
            !c.get(meta.stored_len))
            return info;
        ref.stored_len = meta.stored_len;
        ref.path = store_dir + "/" + ckptBlobName(ref.hash);
        m.logical_bytes += meta.raw_len;
        m.blobs.push_back(std::move(ref));
    }
    return m;
}

} // namespace pfm
