/**
 * @file
 * Versioned, tagged binary checkpoint format for sharded long runs.
 *
 * A checkpoint is a tiny *manifest* file plus one content-addressed blob
 * per section payload in a store directory next to it (ckpt_store.h):
 *
 *   manifest: manifest-magic u64 | version u32 | fingerprint u64 |
 *             workload string | component string | retired u64 |
 *             store subdir string | section count u32 |
 *             per section { name string | hash u64 | raw length u64 |
 *                           raw CRC32 u32 | flags u8 | stored length u64 }
 *             | manifest CRC32 u32 (over everything before it)
 *
 * Sections come in a fixed order; the reader names the section it
 * expects, so an order mismatch is caught by name. Each blob is keyed by
 * the FNV-1a hash of its raw payload and stored lz-compressed (common/
 * lz.h) when that is smaller, which the per-blob flags record. Configs
 * sharing a warmup image therefore share its blobs.
 *
 * Strings are u32 length + bytes. Every multi-byte value is host-endian;
 * checkpoints are an intra-machine hand-off between sweep legs, not an
 * interchange format. All read-side validation failures (truncation, CRC
 * mismatch, wrong version, unexpected section name, over-/under-read of a
 * payload, a whole-image file from an older build) are pfm_fatal with the
 * checkpoint path and offending section — a corrupt file must never crash
 * or silently misload.
 *
 * Adding state: bump kCkptFormatVersion whenever a section's payload
 * layout changes or a section is added/removed, and keep save/load
 * ordering symmetric (see DESIGN.md "Checkpoint format").
 */

#ifndef PFM_SIM_CHECKPOINT_H
#define PFM_SIM_CHECKPOINT_H

#include <cstdint>
#include <cstring>
#include <deque>
#include <memory>
#include <string>
#include <type_traits>
#include <vector>

#include "sim/ckpt_store.h"

namespace pfm {

/**
 * Bump on any layout change; readers reject every other version. v3 is
 * the manifest + blob-store layout.
 */
constexpr std::uint32_t kCkptFormatVersion = 3;

/**
 * "PFMCKPT\0" little-endian: the magic of the retired whole-image layout.
 * The writer never emits it; the reader recognises it only to reject such
 * a file by name.
 */
constexpr std::uint64_t kCkptMagic = 0x0054504b434d4650ull;

/** Blob directory used when a save names none, next to the manifest. */
inline constexpr const char* kCkptDefaultStore = "ckpt_blobs";

/** CRC-32 (IEEE 802.3, reflected poly 0xEDB88320) of @p n bytes. */
std::uint32_t ckptCrc32(const void* data, std::size_t n) noexcept;

class CkptWriter;
class CkptReader;

/**
 * Field-wise serialization hook for trivially copyable types whose
 * in-memory representation contains padding bytes. Raw memcpy of such a
 * type leaks indeterminate heap bytes into the image, breaking the
 * guarantee that two identical runs save byte-identical files (and with
 * it golden-fixture digests). Specialize with:
 *
 *   static constexpr std::size_t kWireSize;        // serialized bytes
 *   static void save(CkptWriter&, const T&);       // field-wise put()s
 *   static void load(CkptReader&, T&);             // symmetric get()s
 *
 * put()/get() dispatch to it automatically; padding-free types take the
 * raw-bytes fast path.
 */
template <typename T> struct CkptIO;

/**
 * True when T may be written as raw bytes: trivially copyable and every
 * bit participates in the value (no padding). Floating-point types fail
 * has_unique_object_representations only because of NaN aliasing, not
 * padding, so they are raw-safe too.
 */
template <typename T>
inline constexpr bool kCkptRawOk =
    std::is_trivially_copyable_v<T> &&
    (std::has_unique_object_representations_v<T> ||
     std::is_floating_point_v<T>);

/** Header fields echoed back by CkptReader::readHeader(). */
struct CkptHeader {
    std::uint32_t version = 0;
    std::uint64_t fingerprint = 0;
    std::string workload;
    std::string component;     ///< component active at save ("none" = bare)
    std::uint64_t retired = 0; ///< instructions retired at the save point
};

/**
 * Serializer. Accumulates raw section payloads in memory; finish()
 * publishes one blob per section and writes the manifest atomically via
 * temp + rename, and is fatal on any I/O error.
 */
class CkptWriter
{
  public:
    /**
     * Blobs go to `<dir of path>/<store_subdir>`, or to kCkptDefaultStore
     * there when @p store_subdir is empty.
     */
    explicit CkptWriter(std::string path, std::string store_subdir = "");

    void writeHeader(const CkptHeader& h);

    void beginSection(const std::string& name);
    void endSection();

    void putBytes(const void* p, std::size_t n);

    template <typename T>
    void
    put(const T& v)
    {
        static_assert(std::is_trivially_copyable_v<T>,
                      "put() requires a trivially copyable type");
        if constexpr (kCkptRawOk<T>)
            putBytes(&v, sizeof(T));
        else
            CkptIO<T>::save(*this, v); // padded type: field-wise hook
    }

    void putString(const std::string& s);

    /**
     * u64 element count + raw bytes; elements must be padding-free (a
     * padded element type needs a per-element put() loop instead).
     */
    template <typename T>
    void
    putVec(const std::vector<T>& v)
    {
        static_assert(kCkptRawOk<T>,
                      "putVec() requires padding-free elements; serialize "
                      "padded structs with a put() loop (see CkptIO)");
        put<std::uint64_t>(v.size());
        if (!v.empty())
            putBytes(v.data(), v.size() * sizeof(T));
    }

    /** u64 element count + per-element put(). */
    template <typename T>
    void
    putDeque(const std::deque<T>& d)
    {
        static_assert(std::is_trivially_copyable_v<T>,
                      "putDeque() requires trivially copyable elements");
        put<std::uint64_t>(d.size());
        for (const T& v : d)
            put(v);
    }

    /** Publish the blobs, then the manifest. No further use after this. */
    void finish();

    const std::string& path() const { return path_; }

  private:
    /** One closed section: a [start, start+len) slice of out_. */
    struct Sec {
        std::string name;
        std::size_t start;
        std::size_t len;
    };

    std::string path_;
    CkptHeader hdr_;
    std::vector<std::uint8_t> out_; ///< concatenated raw section payloads
    std::vector<Sec> secs_;
    std::string store_rel_;         ///< blob dir, relative to path_'s dir
    std::size_t sec_start_ = 0;     ///< offset of the open section's payload
    std::string section_;
    bool in_section_ = false;
    bool header_written_ = false;
};

/**
 * Deserializer. Parses the whole manifest up front; sections are served
 * from their blobs, and every accessor validates bounds against the
 * section payload and dies with the section name on any inconsistency.
 */
class CkptReader
{
  public:
    explicit CkptReader(std::string path);

    /** Parse and validate magic + version; fatal on mismatch. */
    CkptHeader readHeader();

    /**
     * Open the next section, which must be named @p name (order is part
     * of the format), and load its blob (verified by ckptBlobLoad).
     */
    void beginSection(const std::string& name);

    /** Close the current section; fatal if payload bytes remain. */
    void endSection();

    void getBytes(void* p, std::size_t n);

    template <typename T>
    void
    get(T& v)
    {
        static_assert(std::is_trivially_copyable_v<T>,
                      "get() requires a trivially copyable type");
        if constexpr (kCkptRawOk<T>)
            getBytes(&v, sizeof(T));
        else
            CkptIO<T>::load(*this, v); // padded type: field-wise hook
    }

    template <typename T>
    T
    get()
    {
        T v{};
        get(v);
        return v;
    }

    std::string getString();

    template <typename T>
    void
    getVec(std::vector<T>& v)
    {
        static_assert(kCkptRawOk<T>,
                      "getVec() requires padding-free elements; deserialize "
                      "padded structs with a get() loop (see CkptIO)");
        std::uint64_t n = get<std::uint64_t>();
        checkCount(n, sizeof(T));
        v.resize(static_cast<std::size_t>(n));
        if (n)
            getBytes(v.data(), static_cast<std::size_t>(n) * sizeof(T));
    }

    template <typename T>
    void
    getDeque(std::deque<T>& d)
    {
        static_assert(std::is_trivially_copyable_v<T>,
                      "getDeque() requires trivially copyable elements");
        std::uint64_t n = get<std::uint64_t>();
        if constexpr (kCkptRawOk<T>)
            checkCount(n, sizeof(T));
        else
            checkCount(n, CkptIO<T>::kWireSize);
        d.clear();
        for (std::uint64_t i = 0; i < n; ++i)
            d.push_back(get<T>());
    }

    /** True once every section has been consumed. */
    bool atEnd() const;

    const std::string& path() const { return path_; }

  private:
    /** One parsed manifest entry, consumed in order by beginSection(). */
    struct ManifestEntry {
        std::string name;
        std::uint64_t hash = 0;
        CkptBlobMeta meta;
    };

    [[noreturn]] void fail(const std::string& what) const;

    /** Element count sanity: must fit in the bytes left in the section. */
    void checkCount(std::uint64_t n, std::size_t elem_size);

    /** Raw read from the manifest bytes. */
    void rawBytes(void* p, std::size_t n, const char* what);
    std::uint32_t rawU32(const char* what);
    std::uint64_t rawU64(const char* what);
    std::string rawString(const char* what);

    std::string path_;
    std::vector<std::uint8_t> buf_; ///< the whole manifest file
    std::size_t pos_ = 0;           ///< cursor into buf_

    std::vector<ManifestEntry> entries_;
    std::size_t next_entry_ = 0;
    std::string store_dir_;         ///< resolved blob directory

    /**
     * Open section: its payload is the shared blob buffer pinned by
     * blob_ for the section's lifetime. sdata_/send_ cache its bounds so
     * the per-value reads skip the shared_ptr indirection; spos_ is the
     * cursor.
     */
    std::shared_ptr<const std::vector<std::uint8_t>> blob_;
    const std::uint8_t* sdata_ = nullptr;
    std::size_t send_ = 0;
    std::size_t spos_ = 0;
    std::string section_;
    bool in_section_ = false;
};

} // namespace pfm

#endif // PFM_SIM_CHECKPOINT_H
