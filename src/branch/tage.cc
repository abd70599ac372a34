#include "branch/tage.h"

#include <algorithm>
#include <bit>
#include <cmath>

#if defined(__SSE2__) || defined(_M_X64)
#define PFM_TAGE_SSE2 1
#include <emmintrin.h>
#endif

#include "common/bitutils.h"
#include "common/log.h"
#include "sim/checkpoint.h"

namespace pfm {

namespace {
constexpr unsigned kGhistSize = 4096;
} // namespace

TagePredictor::TagePredictor(const TageParams& params) : params_(params)
{
    hist_lengths_.resize(params_.num_tables);
    double ratio =
        std::pow(static_cast<double>(params_.max_history) / params_.min_history,
                 1.0 / (params_.num_tables - 1));
    double len = params_.min_history;
    for (unsigned i = 0; i < params_.num_tables; ++i) {
        hist_lengths_[i] = static_cast<unsigned>(len + 0.5);
        if (i > 0 && hist_lengths_[i] <= hist_lengths_[i - 1])
            hist_lengths_[i] = hist_lengths_[i - 1] + 1;
        len *= ratio;
    }

    pfm_assert(params_.num_tables <= 64,
               "TAGE provider bitmask supports at most 64 tables");

    // Arena: [tag plane: 2B/entry][meta plane: 2B/entry], zero-filled
    // (tag 0, ctr 0, u 0 — same as the old TaggedEntry defaults).
    entries_per_bank_ = std::size_t{1} << params_.log_tagged_entries;
    const std::size_t total = params_.num_tables * entries_per_bank_;
    meta_off_ = 2 * total;
    arena_.assign(4 * total, 0);
    base_.assign(std::size_t{1} << params_.log_base_entries, 2);
    ghist_.assign(kGhistSize, 0);

    // Per-kind fold arrays; tag fold B aliases the index folds when both
    // compress to the same length (identical update streams forever).
    const unsigned n = params_.num_tables;
    idx_fold_.assign(n, 0);
    taga_fold_.assign(n, 0);
    idx_outp_.resize(n);
    taga_outp_.resize(n);
    tagb_outp_.resize(n);
    idx_shift_.resize(n);
    tagb_is_idx_ = (params_.tag_bits - 1 == params_.log_tagged_entries);
    tagb_fold_.assign(tagb_is_idx_ ? 0 : n, 0);
    for (unsigned t = 0; t < n; ++t) {
        idx_outp_[t] = hist_lengths_[t] % params_.log_tagged_entries;
        taga_outp_[t] = hist_lengths_[t] % params_.tag_bits;
        tagb_outp_[t] = hist_lengths_[t] % (params_.tag_bits - 1);
        idx_shift_[t] = params_.log_tagged_entries - (t % 4);
    }
    idx_pow2_.resize(n);
    taga_pow2_.resize(n);
    tagb_pow2_.resize(n);
    for (unsigned t = 0; t < n; ++t) {
        idx_pow2_[t] = 1u << idx_outp_[t];
        taga_pow2_[t] = 1u << taga_outp_[t];
        tagb_pow2_[t] = 1u << tagb_outp_[t];
    }
    cached_idx_.resize(params_.num_tables);
    cached_tag_.resize(params_.num_tables);
}

void
TagePredictor::reset()
{
    *this = TagePredictor(params_);
}

std::size_t
TagePredictor::taggedIndex(Addr pc, unsigned t) const
{
    std::uint64_t x =
        (pc >> 2) ^ ((pc >> 2) >> idx_shift_[t]) ^ idx_fold_[t];
    return x & (entries_per_bank_ - 1);
}

std::uint16_t
TagePredictor::taggedTag(Addr pc, unsigned t) const
{
    std::uint64_t x = (pc >> 2) ^ taga_fold_[t] ^
                      (std::uint64_t{tagbVals()[t]} << 1);
    return static_cast<std::uint16_t>(x & mask(params_.tag_bits));
}

void
TagePredictor::refreshMemo(Addr pc)
{
    // One walk over the contiguous per-kind fold arrays computes all N
    // flat entry offsets (bank base folded in) and tags. The per-table pc
    // mix pcw ^ (pcw >> (log - t%4)) cycles through four values, so it is
    // hoisted into c4[] and the loop body is pure u32 lane arithmetic
    // (the bank masks discard everything the narrowing could lose).
    const std::uint32_t* iv = idx_fold_.data();
    const std::uint32_t* av = taga_fold_.data();
    const std::uint32_t* bv = tagbVals();
    const std::uint64_t pcw = pc >> 2;
    const std::uint32_t pcl = static_cast<std::uint32_t>(pcw);
    std::uint32_t c4[4];
    for (unsigned j = 0; j < 4; ++j)
        c4[j] = static_cast<std::uint32_t>(
            pcw ^ (pcw >> (params_.log_tagged_entries - j)));
    const std::uint32_t tag_mask =
        static_cast<std::uint32_t>(mask(params_.tag_bits));
    const std::uint32_t idx_mask =
        static_cast<std::uint32_t>(entries_per_bank_ - 1);
    const unsigned log_e = params_.log_tagged_entries;
    const unsigned n = params_.num_tables;
    unsigned t = 0;
#if PFM_TAGE_SSE2
    // Four tables per step; c4 has period 4, so it is one constant
    // vector. Tags pack to u16 with signed saturation, which is exact
    // while tags fit in 15 bits; wider configs take the scalar loop.
    if (tag_mask <= 0x7FFF) {
        const __m128i c4v = _mm_loadu_si128(
            reinterpret_cast<const __m128i*>(c4));
        const __m128i pclv = _mm_set1_epi32(static_cast<int>(pcl));
        const __m128i imv = _mm_set1_epi32(static_cast<int>(idx_mask));
        const __m128i tmv = _mm_set1_epi32(static_cast<int>(tag_mask));
        __m128i bank = _mm_set_epi32(3 << log_e, 2 << log_e, 1 << log_e, 0);
        const __m128i bank_step = _mm_set1_epi32(4 << log_e);
        for (; t + 4 <= n; t += 4) {
            const __m128i xi = _mm_and_si128(
                _mm_xor_si128(c4v, _mm_loadu_si128(
                                       reinterpret_cast<const __m128i*>(
                                           iv + t))),
                imv);
            _mm_storeu_si128(
                reinterpret_cast<__m128i*>(cached_idx_.data() + t),
                _mm_add_epi32(bank, xi));
            bank = _mm_add_epi32(bank, bank_step);
            const __m128i xt = _mm_and_si128(
                _mm_xor_si128(
                    _mm_xor_si128(pclv, _mm_loadu_si128(
                                            reinterpret_cast<const __m128i*>(
                                                av + t))),
                    _mm_slli_epi32(
                        _mm_loadu_si128(
                            reinterpret_cast<const __m128i*>(bv + t)),
                        1)),
                tmv);
            _mm_storel_epi64(
                reinterpret_cast<__m128i*>(cached_tag_.data() + t),
                _mm_packs_epi32(xt, xt));
        }
    }
#endif
    for (; t < n; ++t) {
        cached_idx_[t] = (t << log_e) + ((c4[t & 3] ^ iv[t]) & idx_mask);
        cached_tag_[t] = static_cast<std::uint16_t>(
            (pcl ^ av[t] ^ (bv[t] << 1)) & tag_mask);
    }
    memo_pc_ = pc;
    memo_gen_ = hist_gen_;
    memo_valid_ = true;
}

bool
TagePredictor::predict(Addr pc)
{
    info_ = TagePredictionInfo{};

    const std::size_t base_idx =
        (pc >> 2) & ((std::size_t{1} << params_.log_base_entries) - 1);
    const bool base_pred = base_[base_idx] >= 2;

    info_.pred = base_pred;
    info_.alt_pred = base_pred;

    // Same branch, same history (e.g. a taken-path re-predict within one
    // fetch group): all N table indices/tags are unchanged, skip the hash.
    if (!memo_valid_ || memo_pc_ != pc || memo_gen_ != hist_gen_)
        refreshMemo(pc);

    // Branchless provider select: probe every bank's tag plane into a hit
    // bitmask, then the provider is the highest set bit (longest history)
    // and the alternate the next highest. Identical to the historical
    // longest-first tag-compare scan, without its data-dependent branches.
    const std::uint16_t* tags = tagPlane();
    const unsigned n = params_.num_tables;
    std::uint64_t hits = 0;
    for (unsigned t = 0; t < n; ++t)
        hits |= std::uint64_t{tags[cached_idx_[t]] == cached_tag_[t]} << t;

    if (hits) {
        const int provider = 63 - std::countl_zero(hits);
        const std::uint64_t rest = hits ^ (std::uint64_t{1} << provider);
        info_.provider = provider;
        info_.alt_provider =
            rest ? 63 - std::countl_zero(rest) : -1;

        const std::int8_t pctr = ctrAt(cached_idx_[provider]);
        const bool prov_pred = pctr >= 0;
        info_.provider_ctr = pctr;
        info_.provider_weak = (pctr == 0 || pctr == -1);

        info_.alt_pred = (info_.alt_provider >= 0)
                             ? ctrAt(cached_idx_[info_.alt_provider]) >= 0
                             : base_pred;

        info_.pseudo_new_alloc =
            info_.provider_weak && uAt(cached_idx_[provider]) == 0;
        info_.pred = (info_.pseudo_new_alloc && use_alt_on_na_ >= 0)
                         ? info_.alt_pred
                         : prov_pred;
    }
    return info_.pred;
}

void
TagePredictor::update(Addr pc, bool taken)
{
    ++branch_count_;
    lfsr_ = (lfsr_ >> 1) ^ (-(lfsr_ & 1u) & 0xB400u);

    const std::size_t base_idx =
        (pc >> 2) & ((std::size_t{1} << params_.log_base_entries) - 1);

    std::uint16_t* tags = tagPlane();
    std::uint8_t* meta = metaPlane();

    const bool mispred = (info_.pred != taken);
    const int dir = taken ? 1 : -1;

    // use_alt_on_na training: when provider is newly allocated and provider
    // and alt disagree, learn which of the two to trust.
    if (info_.provider >= 0 && info_.pseudo_new_alloc) {
        const bool prov_pred =
            static_cast<std::int8_t>(meta[2 * cached_idx_[info_.provider]]) >=
            0;
        if (prov_pred != info_.alt_pred) {
            const bool alt_correct = (info_.alt_pred == taken);
            use_alt_on_na_ =
                std::clamp(use_alt_on_na_ + (alt_correct ? 1 : -1), -8, 7);
        }
    }

    // Allocate on misprediction (if a longer table could help).
    if (mispred && info_.provider < static_cast<int>(params_.num_tables) - 1) {
        unsigned start = static_cast<unsigned>(info_.provider + 1);
        // Probabilistically skip one table to spread allocations.
        if ((lfsr_ & 1) && start + 1 < params_.num_tables)
            ++start;
        bool allocated = false;
        for (unsigned t = start; t < params_.num_tables; ++t) {
            const std::size_t f = cached_idx_[t];
            if (meta[2 * f + 1] == 0) {
                tags[f] = cached_tag_[t];
                meta[2 * f] = static_cast<std::uint8_t>(taken ? 0 : -1);
                allocated = true;
                break;
            }
        }
        if (!allocated) {
            // Decay usefulness so future allocations succeed (branchless:
            // subtract the is-positive mask instead of testing each u).
            for (unsigned t = start; t < params_.num_tables; ++t) {
                std::uint8_t& u = meta[2 * cached_idx_[t] + 1];
                u -= (u > 0);
            }
        }
    }

    // Update provider counter (or base). All saturating counters use
    // clamp-style mask-and-add arithmetic: branch-free and bit-identical
    // to the historical guarded increments.
    const int max_ctr = (1 << (params_.ctr_bits - 1)) - 1;
    const int min_ctr = -(1 << (params_.ctr_bits - 1));
    if (info_.provider >= 0) {
        const std::size_t f = cached_idx_[info_.provider];
        const int nc =
            std::clamp(static_cast<int>(static_cast<std::int8_t>(
                           meta[2 * f])) + dir,
                       min_ctr, max_ctr);
        meta[2 * f] = static_cast<std::uint8_t>(nc);
        // Usefulness: provider correct and alt wrong (evaluated against
        // the already-updated counter, as historically).
        const bool prov_correct = ((nc >= 0) == taken);
        const bool alt_wrong = (info_.alt_pred != taken);
        const int du = static_cast<int>(alt_wrong && prov_correct) -
                       static_cast<int>(!alt_wrong && !prov_correct);
        meta[2 * f + 1] = static_cast<std::uint8_t>(
            std::clamp(static_cast<int>(meta[2 * f + 1]) + du, 0, 3));
        // Also train base when provider was newly allocated (helps warmup).
        if (info_.pseudo_new_alloc) {
            std::uint8_t& b = base_[base_idx];
            b = static_cast<std::uint8_t>(
                std::clamp(static_cast<int>(b) + dir, 0, 3));
        }
    } else {
        std::uint8_t& b = base_[base_idx];
        b = static_cast<std::uint8_t>(
            std::clamp(static_cast<int>(b) + dir, 0, 3));
    }

    // Periodic graceful aging of u bits.
    if ((branch_count_ & ((std::uint64_t{1} << params_.useful_reset_period) -
                          1)) == 0) {
        const std::size_t total = params_.num_tables * entries_per_bank_;
        for (std::size_t f = 0; f < total; ++f)
            meta[2 * f + 1] >>= 1;
    }

    pushHistory(taken);
}

void
TagePredictor::pushHistory(bool taken)
{
    ghist_ptr_ = (ghist_ptr_ - 1) & (kGhistSize - 1);
    ghist_[ghist_ptr_] = taken ? 1 : 0;
    packed_hist_ = (packed_hist_ >> 1) |
                   (taken ? (std::uint64_t{1} << 63) : 0);
    ++hist_gen_;
    // One pass over the per-kind fold arrays: the incoming bit is loaded
    // once, each table's outgoing bit once (all of a table's folds drop
    // the same bit), the per-kind compressed lengths and masks stay in
    // registers, and the aliased tag B kind costs nothing — versus the
    // historical 3N struct updates each re-reading the ring buffer twice.
    // On x86-64 four tables update per step as u32 lanes of one SSE2
    // vector (the precomputed 1 << outpoint arrays turn the outgoing-bit
    // XOR into an AND with a lane-select mask); the scalar loop below is
    // the bit-identical fallback and remainder path.
    const std::uint32_t in = ghist_[ghist_ptr_];
    const std::uint32_t ci = params_.log_tagged_entries;
    const std::uint32_t ca = params_.tag_bits;
    const std::uint32_t cb = params_.tag_bits - 1;
    const std::uint32_t mi = (1u << ci) - 1;
    const std::uint32_t ma = (1u << ca) - 1;
    const std::uint32_t mb = (1u << cb) - 1;
    std::uint32_t* iv = idx_fold_.data();
    std::uint32_t* av = taga_fold_.data();
    std::uint32_t* bv = tagb_fold_.data();
    const unsigned n = params_.num_tables;
    unsigned t = 0;
#if PFM_TAGE_SSE2
    const __m128i inv = _mm_set1_epi32(static_cast<int>(in));
    const __m128i cnt_i = _mm_cvtsi32_si128(static_cast<int>(ci));
    const __m128i cnt_a = _mm_cvtsi32_si128(static_cast<int>(ca));
    const __m128i cnt_b = _mm_cvtsi32_si128(static_cast<int>(cb));
    const __m128i msk_i = _mm_set1_epi32(static_cast<int>(mi));
    const __m128i msk_a = _mm_set1_epi32(static_cast<int>(ma));
    const __m128i msk_b = _mm_set1_epi32(static_cast<int>(mb));
    auto fold4 = [](std::uint32_t* vals, const std::uint32_t* pow2,
                    unsigned g, __m128i sel, __m128i inb, __m128i cnt,
                    __m128i msk) {
        __m128i w = _mm_loadu_si128(
            reinterpret_cast<const __m128i*>(vals + g));
        w = _mm_or_si128(_mm_slli_epi32(w, 1), inb);
        w = _mm_xor_si128(
            w, _mm_and_si128(sel, _mm_loadu_si128(
                                      reinterpret_cast<const __m128i*>(
                                          pow2 + g))));
        w = _mm_xor_si128(w, _mm_srl_epi32(w, cnt));
        w = _mm_and_si128(w, msk);
        _mm_storeu_si128(reinterpret_cast<__m128i*>(vals + g), w);
    };
    for (; t + 4 <= n; t += 4) {
        const int o0 = ghist_[(ghist_ptr_ + hist_lengths_[t]) &
                              (kGhistSize - 1)];
        const int o1 = ghist_[(ghist_ptr_ + hist_lengths_[t + 1]) &
                              (kGhistSize - 1)];
        const int o2 = ghist_[(ghist_ptr_ + hist_lengths_[t + 2]) &
                              (kGhistSize - 1)];
        const int o3 = ghist_[(ghist_ptr_ + hist_lengths_[t + 3]) &
                              (kGhistSize - 1)];
        const __m128i sel = _mm_set_epi32(-o3, -o2, -o1, -o0);
        fold4(iv, idx_pow2_.data(), t, sel, inv, cnt_i, msk_i);
        fold4(av, taga_pow2_.data(), t, sel, inv, cnt_a, msk_a);
        if (!tagb_is_idx_)
            fold4(bv, tagb_pow2_.data(), t, sel, inv, cnt_b, msk_b);
    }
#endif
    for (; t < n; ++t) {
        const std::uint32_t out =
            ghist_[(ghist_ptr_ + hist_lengths_[t]) & (kGhistSize - 1)];
        std::uint32_t v = ((iv[t] << 1) | in) ^ (out << idx_outp_[t]);
        v ^= v >> ci;
        iv[t] = v & mi;
        v = ((av[t] << 1) | in) ^ (out << taga_outp_[t]);
        v ^= v >> ca;
        av[t] = v & ma;
        if (!tagb_is_idx_) {
            v = ((bv[t] << 1) | in) ^ (out << tagb_outp_[t]);
            v ^= v >> cb;
            bv[t] = v & mb;
        }
    }
}

void
TagePredictor::saveState(CkptWriter& w) const
{
    // Byte-compatible with the historical AoS layout: each bank is written
    // as a u64 entry count followed by per-entry {tag u16, ctr i8, u u8},
    // exactly the bytes putVec() produced for vector<TaggedEntry>.
    const std::uint16_t* tags = tagPlane();
    const std::uint8_t* meta = metaPlane();
    for (unsigned t = 0; t < params_.num_tables; ++t) {
        w.put<std::uint64_t>(entries_per_bank_);
        const std::size_t bank = std::size_t{t} << params_.log_tagged_entries;
        for (std::size_t i = 0; i < entries_per_bank_; ++i) {
            const std::size_t f = bank + i;
            w.put(tags[f]);
            w.put(static_cast<std::int8_t>(meta[2 * f]));
            w.put(meta[2 * f + 1]);
        }
    }
    w.putVec(base_);
    w.putVec(ghist_);
    w.put(ghist_ptr_);
    w.put(packed_hist_);
    w.put(hist_gen_);
    // The fold state is stored as per-kind (possibly aliased) arrays but
    // serialized as the historical three grouped vectors (all index
    // folds, then tag fold A, then tag fold B), each fold written as
    // {value, comp_length, orig_length, outpoint}.
    auto put_folds = [this, &w](const std::uint32_t* vals, unsigned comp,
                                const std::vector<std::uint32_t>& outp) {
        w.put<std::uint64_t>(params_.num_tables);
        for (unsigned t = 0; t < params_.num_tables; ++t) {
            w.put(vals[t]);
            w.put(comp);
            w.put(hist_lengths_[t]);
            w.put(static_cast<unsigned>(outp[t]));
        }
    };
    put_folds(idx_fold_.data(), params_.log_tagged_entries, idx_outp_);
    put_folds(taga_fold_.data(), params_.tag_bits, taga_outp_);
    put_folds(tagbVals(), params_.tag_bits - 1, tagb_outp_);
    w.put(use_alt_on_na_);
    w.put(branch_count_);
    w.put(lfsr_);
    w.put(info_);
}

void
TagePredictor::loadState(CkptReader& r)
{
    std::uint16_t* tags = tagPlane();
    std::uint8_t* meta = metaPlane();
    for (unsigned t = 0; t < params_.num_tables; ++t) {
        const std::uint64_t n = r.get<std::uint64_t>();
        if (n != entries_per_bank_)
            pfm_fatal("TAGE bank %u: checkpoint has %llu entries, "
                      "configured geometry wants %llu",
                      t, (unsigned long long)n,
                      (unsigned long long)entries_per_bank_);
        const std::size_t bank = std::size_t{t} << params_.log_tagged_entries;
        for (std::size_t i = 0; i < entries_per_bank_; ++i) {
            const std::size_t f = bank + i;
            r.get(tags[f]);
            std::int8_t c;
            r.get(c);
            meta[2 * f] = static_cast<std::uint8_t>(c);
            r.get(meta[2 * f + 1]);
        }
    }
    r.getVec(base_);
    r.getVec(ghist_);
    r.get(ghist_ptr_);
    r.get(packed_hist_);
    r.get(hist_gen_);
    auto get_folds = [this, &r](std::uint32_t* vals, unsigned want_comp) {
        const std::uint64_t n = r.get<std::uint64_t>();
        if (n != params_.num_tables)
            pfm_fatal("TAGE fold block: checkpoint has %llu folds, "
                      "configured geometry wants %u",
                      (unsigned long long)n, params_.num_tables);
        for (unsigned t = 0; t < params_.num_tables; ++t) {
            r.get(vals[t]);
            unsigned comp, orig, outpoint;
            r.get(comp);
            r.get(orig);
            r.get(outpoint);
            // Fold geometry is derived from the params, not restored:
            // reject checkpoints whose history lengths disagree.
            if (comp != want_comp || orig != hist_lengths_[t] ||
                outpoint != orig % comp)
                pfm_fatal("TAGE fold %u: checkpoint geometry "
                          "(%u->%u @%u) does not match configured "
                          "(%u->%u)",
                          t, orig, comp, outpoint, hist_lengths_[t],
                          want_comp);
        }
    };
    get_folds(idx_fold_.data(), params_.log_tagged_entries);
    get_folds(taga_fold_.data(), params_.tag_bits);
    // Tag fold B: when aliased its stream equals the index folds', so the
    // serialized copy is redundant — consume and verify it instead.
    if (tagb_is_idx_) {
        std::vector<std::uint32_t> scratch(params_.num_tables);
        get_folds(scratch.data(), params_.tag_bits - 1);
        for (unsigned t = 0; t < params_.num_tables; ++t)
            if (scratch[t] != idx_fold_[t])
                pfm_fatal("TAGE tag fold B %u: checkpoint value diverges "
                          "from its aliased index fold", t);
    } else {
        get_folds(tagb_fold_.data(), params_.tag_bits - 1);
    }
    r.get(use_alt_on_na_);
    r.get(branch_count_);
    r.get(lfsr_);
    r.get(info_);
    // The (pc, generation) memo is a pure cache; drop it rather than
    // serialize the cached index/tag arrays.
    memo_valid_ = false;
}

} // namespace pfm
