/**
 * @file
 * Content-addressed blob store behind every checkpoint manifest.
 *
 * A store directory holds one file per unique section payload, named by
 * the FNV-1a 64 hash of the raw (uncompressed) bytes:
 *
 *   blob:     magic u32 "PFMB" | raw_len u64 | raw CRC32 u32 | flags u8 |
 *             stored_len u64 | stored bytes
 *
 * flags bit 0 set means the stored bytes are lz-compressed (common/lz.h);
 * clear means they are the raw payload verbatim. A checkpoint is a tiny
 * *manifest* referencing blobs by hash, so a sweep of N configs sharing
 * one bare-core warmup keeps the multi-megabyte engine image once and
 * pays only per-config deltas (see checkpoint.h for the manifest layout,
 * DESIGN.md "Checkpoint store" for the rationale).
 *
 * Writes are atomic (temp + rename) and idempotent: a blob that already
 * exists is verified against the expected header instead of rewritten,
 * which both implements dedup and guards against hash collisions — two
 * different payloads hashing alike differ in raw_len/CRC and die loudly
 * rather than silently aliasing.
 *
 * Reads go through a small process-wide hot-blob cache: each blob is
 * loaded and decompressed once into an anonymous buffer and then shared
 * (shared_ptr) across every concurrent restore that references it.
 */

#ifndef PFM_SIM_CKPT_STORE_H
#define PFM_SIM_CKPT_STORE_H

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

namespace pfm {

/** "PFMB" little-endian; starts every blob file. */
constexpr std::uint32_t kCkptBlobMagic = 0x424D4650u;

/** "PFMCKPTM" little-endian; starts every manifest checkpoint file. */
constexpr std::uint64_t kCkptManifestMagic = 0x4D54504B434D4650ull;

/** Blob flags bit 0: stored bytes are lz-compressed. */
constexpr std::uint8_t kCkptBlobCompressed = 0x01;

/** FNV-1a 64 over @p n bytes — the content address of a section. */
std::uint64_t ckptHash64(const void* data, std::size_t n) noexcept;

/** Blob filename for @p hash: 16 lowercase hex digits + ".blob". */
std::string ckptBlobName(std::uint64_t hash);

/**
 * Directory part of @p path ("." when it has no separator) — store
 * subdirs in manifests are relative to the manifest's own directory.
 */
std::string ckptDirOf(const std::string& path);

/**
 * Per-blob metadata, stored in the blob header and echoed by every
 * manifest entry that references it. Loads cross-check the two copies.
 */
struct CkptBlobMeta {
    std::uint64_t raw_len = 0;    ///< uncompressed payload bytes
    std::uint32_t raw_crc = 0;    ///< CRC32 of the raw payload
    std::uint8_t flags = 0;       ///< kCkptBlobCompressed or 0
    std::uint64_t stored_len = 0; ///< bytes on disk after the header

    bool
    operator==(const CkptBlobMeta& o) const
    {
        return raw_len == o.raw_len && raw_crc == o.raw_crc &&
               flags == o.flags && stored_len == o.stored_len;
    }
};

/** Bytes of blob header preceding the stored payload. */
constexpr std::size_t kCkptBlobHeaderBytes =
    sizeof(std::uint32_t) + sizeof(std::uint64_t) + sizeof(std::uint32_t) +
    sizeof(std::uint8_t) + sizeof(std::uint64_t);

/**
 * Publish @p stored (matching @p meta) as @p hash into @p store_dir,
 * creating the directory on first use. If the blob already exists its
 * header is verified against @p meta: a match is the dedup fast path (no
 * write), a mismatch is fatal — hash collision or on-disk corruption.
 * @p ckpt_path / @p section name the owning checkpoint in diagnostics.
 */
void ckptStorePut(const std::string& store_dir, std::uint64_t hash,
                  const CkptBlobMeta& meta, const std::uint8_t* stored,
                  const std::string& ckpt_path, const std::string& section);

/**
 * Load the raw payload of the blob at @p blob_path, expected to carry
 * @p hash / @p meta (from the referencing manifest). Validates magic,
 * header-vs-manifest metadata, stored length, decompression, raw CRC and
 * content hash; any mismatch is fatal naming @p ckpt_path and @p section.
 * The returned buffer is shared with other concurrent loads of the same
 * blob via the process-wide hot-blob cache.
 */
std::shared_ptr<const std::vector<std::uint8_t>>
ckptBlobLoad(const std::string& blob_path, std::uint64_t hash,
             const CkptBlobMeta& meta, const std::string& ckpt_path,
             const std::string& section);

/** Sum of the sizes of all *.blob files in @p dir (0 if absent). */
std::uint64_t ckptStoreDirBytes(const std::string& dir);

/**
 * Best-effort removal of a store directory: unlink every *.blob (and
 * stray temp file), then rmdir. Sweep/daemon cleanup path; never fatal.
 */
void ckptStoreRemoveDir(const std::string& dir);

/** One manifest→blob reference, resolved to an on-disk path. */
struct CkptBlobRef {
    std::uint64_t hash = 0;
    std::uint64_t stored_len = 0; ///< payload bytes after the blob header
    std::string path;
};

/**
 * What a checkpoint file costs, for cache accounting. file_bytes is the
 * manifest itself; logical_bytes is the uncompressed section payload
 * total, what an undeduplicated copy would hold; blobs lists the
 * referenced store files.
 */
struct CkptFileInfo {
    bool manifest = false;
    std::uint32_t version = 0;
    std::uint64_t file_bytes = 0;
    std::uint64_t logical_bytes = 0;
    std::vector<CkptBlobRef> blobs;
};

/**
 * Lenient inspection of the manifest at @p path for byte accounting.
 * Never fatal: an unreadable or unrecognized file reports its plain size
 * as both file_bytes and logical_bytes, with no blobs — the daemon cache
 * charges *something* sane even for files it did not write (tests stub
 * cache entries with junk payloads).
 */
CkptFileInfo inspectCkptFile(const std::string& path);

} // namespace pfm

#endif // PFM_SIM_CKPT_STORE_H
