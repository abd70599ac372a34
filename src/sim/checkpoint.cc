#include "sim/checkpoint.h"

#include <array>
#include <cstdio>

#include "common/log.h"
#include "common/lz.h"

namespace pfm {

namespace {

/**
 * Slice-by-8 tables: table[0] is the classic byte-at-a-time table,
 * table[k][b] is the CRC of byte b followed by k zero bytes, letting the
 * hot loop fold 8 input bytes per iteration. Section payloads run to tens
 * of megabytes (the functional memory image), so the byte-at-a-time loop
 * was a measurable slice of a warmup leg's wall time.
 */
std::array<std::array<std::uint32_t, 256>, 8>
makeCrcTables()
{
    std::array<std::array<std::uint32_t, 256>, 8> t{};
    for (std::uint32_t i = 0; i < 256; ++i) {
        std::uint32_t c = i;
        for (int k = 0; k < 8; ++k)
            c = (c & 1) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
        t[0][i] = c;
    }
    for (std::uint32_t i = 0; i < 256; ++i)
        for (std::size_t k = 1; k < 8; ++k)
            t[k][i] = t[0][t[k - 1][i] & 0xFFu] ^ (t[k - 1][i] >> 8);
    return t;
}

} // namespace

std::uint32_t
ckptCrc32(const void* data, std::size_t n) noexcept
{
    static const auto tables = makeCrcTables();
    const auto& t = tables;
    const auto* p = static_cast<const std::uint8_t*>(data);
    std::uint32_t crc = 0xFFFFFFFFu;
    while (n >= 8) {
        std::uint32_t lo;
        std::uint32_t hi;
        std::memcpy(&lo, p, 4);
        std::memcpy(&hi, p + 4, 4);
        lo ^= crc;
        crc = t[7][lo & 0xFFu] ^ t[6][(lo >> 8) & 0xFFu] ^
              t[5][(lo >> 16) & 0xFFu] ^ t[4][lo >> 24] ^
              t[3][hi & 0xFFu] ^ t[2][(hi >> 8) & 0xFFu] ^
              t[1][(hi >> 16) & 0xFFu] ^ t[0][hi >> 24];
        p += 8;
        n -= 8;
    }
    while (n--)
        crc = t[0][(crc ^ *p++) & 0xFFu] ^ (crc >> 8);
    return crc ^ 0xFFFFFFFFu;
}

// ---------------------------------------------------------------- writer

namespace {

/** Append raw bytes / u32-length strings to a byte buffer. */
void
appendBytes(std::vector<std::uint8_t>& out, const void* p, std::size_t n)
{
    const auto* b = static_cast<const std::uint8_t*>(p);
    out.insert(out.end(), b, b + n);
}

template <typename T>
void
appendVal(std::vector<std::uint8_t>& out, const T& v)
{
    appendBytes(out, &v, sizeof v);
}

void
appendStr(std::vector<std::uint8_t>& out, const std::string& s)
{
    appendVal(out, static_cast<std::uint32_t>(s.size()));
    appendBytes(out, s.data(), s.size());
}

/**
 * Write-to-temp + atomic rename: a run killed (or a disk filled) mid
 * write must never leave a truncated manifest at the final path, where a
 * later sharded leg would trip over it as corruption. The temp is
 * removed on every failure path, so the worst crash artifact is a
 * stale .tmp no reader ever opens.
 */
void
writeFileAtomic(const std::string& path,
                const std::vector<std::uint8_t>& bytes)
{
    const std::string tmp = path + ".tmp";
    std::FILE* f = std::fopen(tmp.c_str(), "wb");
    if (!f)
        pfm_fatal("checkpoint '%s': cannot open for writing", path.c_str());
    std::size_t written = bytes.empty()
        ? 0
        : std::fwrite(bytes.data(), 1, bytes.size(), f);
    bool close_ok = std::fclose(f) == 0;
    if (written != bytes.size() || !close_ok) {
        std::remove(tmp.c_str());
        pfm_fatal("checkpoint '%s': short write (%zu of %zu bytes)",
                  path.c_str(), written, bytes.size());
    }
    if (std::rename(tmp.c_str(), path.c_str()) != 0) {
        std::remove(tmp.c_str());
        pfm_fatal("checkpoint '%s': cannot rename temp manifest into place",
                  path.c_str());
    }
}

} // namespace

CkptWriter::CkptWriter(std::string path, std::string store_subdir)
    : path_(std::move(path)),
      store_rel_(store_subdir.empty() ? kCkptDefaultStore
                                      : std::move(store_subdir))
{
}

void
CkptWriter::writeHeader(const CkptHeader& h)
{
    pfm_assert(!header_written_, "checkpoint header written twice");
    header_written_ = true;
    hdr_ = h;
}

void
CkptWriter::beginSection(const std::string& name)
{
    pfm_assert(header_written_, "section before checkpoint header");
    pfm_assert(!in_section_, "nested checkpoint section '%s'", name.c_str());
    in_section_ = true;
    section_ = name;
    sec_start_ = out_.size();
}

void
CkptWriter::endSection()
{
    pfm_assert(in_section_, "endSection() with no open section");
    in_section_ = false;
    secs_.push_back(Sec{section_, sec_start_, out_.size() - sec_start_});
}

void
CkptWriter::putBytes(const void* p, std::size_t n)
{
    pfm_assert(in_section_, "checkpoint write outside a section");
    appendBytes(out_, p, n);
}

void
CkptWriter::putString(const std::string& s)
{
    put<std::uint32_t>(static_cast<std::uint32_t>(s.size()));
    putBytes(s.data(), s.size());
}

void
CkptWriter::finish()
{
    pfm_assert(!in_section_, "finish() with section '%s' still open",
               section_.c_str());

    std::vector<std::uint8_t> file;
    appendVal(file, kCkptManifestMagic);
    appendVal(file, kCkptFormatVersion);
    appendVal(file, hdr_.fingerprint);
    appendStr(file, hdr_.workload);
    appendStr(file, hdr_.component);
    appendVal(file, hdr_.retired);
    appendStr(file, store_rel_);
    appendVal(file, static_cast<std::uint32_t>(secs_.size()));

    // Blobs are published before the manifest that names them, so a
    // manifest at the final path never references a missing blob.
    const std::string store_dir = ckptDirOf(path_) + "/" + store_rel_;
    std::vector<std::uint8_t> packed;
    for (const Sec& sec : secs_) {
        const std::uint8_t* raw = out_.data() + sec.start;
        // The compressed form is stored only when it actually wins; the
        // flags byte keeps the blob self-describing either way.
        lz::compress(raw, sec.len, packed);
        const bool packs = packed.size() < sec.len;
        CkptBlobMeta meta;
        meta.raw_len = sec.len;
        meta.raw_crc = ckptCrc32(raw, sec.len);
        meta.flags = packs ? kCkptBlobCompressed : 0;
        meta.stored_len = packs ? packed.size() : sec.len;
        const std::uint64_t hash = ckptHash64(raw, sec.len);
        ckptStorePut(store_dir, hash, meta, packs ? packed.data() : raw,
                     path_, sec.name);
        appendStr(file, sec.name);
        appendVal(file, hash);
        appendVal(file, meta.raw_len);
        appendVal(file, meta.raw_crc);
        appendVal(file, meta.flags);
        appendVal(file, meta.stored_len);
    }
    appendVal(file, ckptCrc32(file.data(), file.size()));

    writeFileAtomic(path_, file);
}

// ---------------------------------------------------------------- reader

namespace {

/**
 * Exactly-once fclose for every exit from the reader constructor. The
 * error paths below run under ScopedFatalThrow in the daemon, where
 * pfm_fatal *throws* instead of exiting — a bare fclose-before-fatal
 * pattern silently becomes a descriptor leak the moment someone adds an
 * early return, so the close is tied to scope unwinding instead.
 */
struct ScopedFile {
    std::FILE* f = nullptr;
    ~ScopedFile()
    {
        if (f)
            std::fclose(f);
    }
};

} // namespace

CkptReader::CkptReader(std::string path) : path_(std::move(path))
{
    ScopedFile file;
    file.f = std::fopen(path_.c_str(), "rb");
    if (!file.f)
        pfm_fatal("checkpoint '%s': cannot open for reading", path_.c_str());
    if (std::fseek(file.f, 0, SEEK_END) != 0)
        pfm_fatal("checkpoint '%s': cannot seek", path_.c_str());
    long size = std::ftell(file.f);
    if (size < 0 || std::fseek(file.f, 0, SEEK_SET) != 0)
        pfm_fatal("checkpoint '%s': cannot determine size", path_.c_str());
    buf_.resize(static_cast<std::size_t>(size));
    std::size_t got = buf_.empty()
        ? 0
        : std::fread(buf_.data(), 1, buf_.size(), file.f);
    if (got != buf_.size())
        pfm_fatal("checkpoint '%s': short read (%zu of %zu bytes)",
                  path_.c_str(), got, buf_.size());
}

void
CkptReader::fail(const std::string& what) const
{
    if (section_.empty())
        pfm_fatal("checkpoint '%s': %s", path_.c_str(), what.c_str());
    pfm_fatal("checkpoint '%s': %s (section '%s')", path_.c_str(),
              what.c_str(), section_.c_str());
}

void
CkptReader::rawBytes(void* p, std::size_t n, const char* what)
{
    if (n > buf_.size() - pos_)
        fail(std::string("truncated while reading ") + what);
    std::memcpy(p, buf_.data() + pos_, n);
    pos_ += n;
}

std::uint32_t
CkptReader::rawU32(const char* what)
{
    std::uint32_t v;
    rawBytes(&v, sizeof v, what);
    return v;
}

std::uint64_t
CkptReader::rawU64(const char* what)
{
    std::uint64_t v;
    rawBytes(&v, sizeof v, what);
    return v;
}

std::string
CkptReader::rawString(const char* what)
{
    std::uint32_t len = rawU32(what);
    if (len > buf_.size() - pos_)
        fail(std::string("truncated while reading ") + what);
    std::string s(reinterpret_cast<const char*>(buf_.data() + pos_), len);
    pos_ += len;
    return s;
}

CkptHeader
CkptReader::readHeader()
{
    std::uint64_t magic = rawU64("header magic");
    if (magic == kCkptMagic)
        fail("whole-image checkpoint from an older build; only manifest + "
             "blob-store checkpoints are readable, re-save it");
    if (magic != kCkptManifestMagic)
        fail("bad magic, not a PFM checkpoint");
    CkptHeader h;
    h.version = rawU32("manifest version");
    if (h.version != kCkptFormatVersion)
        fail("manifest format version " + std::to_string(h.version) +
             " != supported version " +
             std::to_string(kCkptFormatVersion));
    h.fingerprint = rawU64("manifest fingerprint");
    h.workload = rawString("manifest workload");
    h.component = rawString("manifest component");
    h.retired = rawU64("manifest retired count");
    store_dir_ = ckptDirOf(path_) + "/" + rawString("manifest store path");
    // No reserve(nsec): a corrupt count just runs into the end of the
    // file, one entry at a time.
    std::uint32_t nsec = rawU32("manifest section count");
    for (std::uint32_t i = 0; i < nsec; ++i) {
        ManifestEntry e;
        e.name = rawString("manifest entry name");
        e.hash = rawU64("manifest entry hash");
        e.meta.raw_len = rawU64("manifest entry raw length");
        e.meta.raw_crc = rawU32("manifest entry raw CRC");
        rawBytes(&e.meta.flags, 1, "manifest entry flags");
        e.meta.stored_len = rawU64("manifest entry stored length");
        entries_.push_back(std::move(e));
    }
    // The trailing CRC covers every preceding byte, so a flipped bit
    // anywhere in the manifest (including a blob hash, which would
    // otherwise just look like a missing blob) dies here by name.
    std::uint32_t crc = rawU32("manifest CRC");
    if (ckptCrc32(buf_.data(), pos_ - sizeof crc) != crc)
        fail("manifest CRC mismatch");
    if (pos_ != buf_.size())
        fail("trailing bytes after manifest");
    return h;
}

void
CkptReader::beginSection(const std::string& name)
{
    pfm_assert(!in_section_, "nested checkpoint section '%s'", name.c_str());
    // Report errors against the section we are *trying* to open.
    section_ = name;
    if (next_entry_ == entries_.size())
        fail("file ends before section");
    const ManifestEntry& e = entries_[next_entry_++];
    if (e.name != name)
        fail("expected section '" + name + "', found '" + e.name +
             "' (section order mismatch)");
    blob_ = ckptBlobLoad(store_dir_ + "/" + ckptBlobName(e.hash), e.hash,
                         e.meta, path_, name);
    sdata_ = blob_->data();
    send_ = blob_->size();
    spos_ = 0;
    in_section_ = true;
}

void
CkptReader::endSection()
{
    pfm_assert(in_section_, "endSection() with no open section");
    if (spos_ != send_)
        fail(std::to_string(send_ - spos_) + " unconsumed payload bytes");
    in_section_ = false;
    blob_.reset();
    section_.clear();
}

void
CkptReader::getBytes(void* p, std::size_t n)
{
    if (!in_section_)
        fail("checkpoint read outside a section");
    if (n > send_ - spos_)
        fail("payload exhausted");
    std::memcpy(p, sdata_ + spos_, n);
    spos_ += n;
}

void
CkptReader::checkCount(std::uint64_t n, std::size_t elem_size)
{
    std::uint64_t remaining = send_ - spos_;
    if (elem_size != 0 && n > remaining / elem_size)
        fail("implausible element count " + std::to_string(n));
}

std::string
CkptReader::getString()
{
    std::uint32_t len = get<std::uint32_t>();
    if (len > send_ - spos_)
        fail("payload exhausted");
    std::string s(reinterpret_cast<const char*>(sdata_ + spos_), len);
    spos_ += len;
    return s;
}

bool
CkptReader::atEnd() const
{
    return next_entry_ == entries_.size();
}

} // namespace pfm
