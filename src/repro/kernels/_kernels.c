/* Native decode/distance kernels for the repro label store.
 *
 * Compiled into a tiny shared library (no Python.h — loaded through cffi's
 * ABI mode, dlopen-style) and called with raw pointers into
 * ``LabelStore.buffers()``: the payload byte buffer, the byte-offset index
 * and the bit-length index.  Every routine returns 0 on success and 1 when
 * it meets anything it is not prepared to handle — unknown widths, corrupt
 * streams, values near the 64-bit limit.  The Python caller treats a
 * nonzero return as "fall back to the packed-Python path", which reproduces
 * the exact reference behaviour (including the exception raised for
 * genuinely corrupt labels).  The C side therefore never needs to be
 * bug-for-bug complete: it only needs to be *silent* about what it skips
 * and byte-identical on what it accepts.  The one-pair entries
 * (repro_*_pair) return their answer directly, and PAIR_DECLINE where the
 * others return 1.
 *
 * Bit layout contract (matching repro.encoding.bitio): MSB-first within the
 * packed stream; label i starts at bit offset offs[i] * 8 and is lens[i]
 * bits long.  Codes: unary 0^k 1; Elias gamma = unary(zeros) + zeros bits,
 * value ((1 << zeros) | rest) - 1; Elias delta = gamma(width - 1) + width-1
 * bits; Lemma 2.2 monotone = gamma(count), gamma(low_width), count packed
 * low parts, count unary-coded high-part differences.
 */

#include <stdint.h>
#include <stdlib.h>
#include <string.h>

#define E_OK 0
#define E_FALLBACK 1

/* What a one-pair entry (repro_*_pair) returns instead of an answer when it
 * declines: no label field can produce it, since every decoded value stays
 * below 2^MAX_VALUE_BITS.  repro.kernels.DECLINED holds the same value. */
#define PAIR_DECLINE INT64_MIN

/* Arbitrary sanity ceilings: anything above falls back to Python (which
 * handles unbounded integers).  Chosen so every intermediate fits int64
 * with room to spare. */
#define MAX_COUNT (1u << 20)
#define MAX_VALUE_BITS 56

#define ABI_VERSION 5

int repro_kernels_abi(void) { return ABI_VERSION; }

/* -- bit reader ---------------------------------------------------------- */

typedef struct {
    const uint8_t *base;
    uint64_t pos;
    uint64_t end;
} br_t;

static inline int br_read(br_t *r, uint32_t width, uint64_t *out) {
    uint64_t pos = r->pos;
    uint64_t result = 0;
    uint32_t got = 0;
    if (width > 63 || pos + width > r->end) return E_FALLBACK;
    while (got < width) {
        uint64_t byte_i = pos >> 3;
        uint32_t bit_i = (uint32_t)(pos & 7);
        uint32_t avail = 8 - bit_i;
        uint32_t want = width - got;
        uint32_t take = want < avail ? want : avail;
        uint32_t chunk =
            (uint32_t)(r->base[byte_i] >> (avail - take)) & ((1u << take) - 1u);
        result = (result << take) | chunk;
        pos += take;
        got += take;
    }
    r->pos = pos;
    *out = result;
    return E_OK;
}

static inline int br_unary(br_t *r, uint64_t *zeros) {
    uint64_t pos = r->pos;
    uint64_t count = 0;
    while (pos < r->end) {
        uint32_t bit = (r->base[pos >> 3] >> (7 - (pos & 7))) & 1u;
        pos++;
        if (bit) {
            r->pos = pos;
            *zeros = count;
            return E_OK;
        }
        count++;
    }
    return E_FALLBACK;
}

static inline int br_gamma(br_t *r, uint64_t *out) {
    uint64_t zeros, rest = 0;
    if (br_unary(r, &zeros)) return E_FALLBACK;
    if (zeros > 62) return E_FALLBACK;
    if (zeros && br_read(r, (uint32_t)zeros, &rest)) return E_FALLBACK;
    *out = ((1ull << zeros) | rest) - 1;
    return E_OK;
}

static inline int br_delta(br_t *r, uint64_t *out) {
    uint64_t w, rest;
    if (br_gamma(r, &w)) return E_FALLBACK;
    if (w > 62) return E_FALLBACK;
    if (w == 0) {
        *out = 0;
        return E_OK;
    }
    if (br_read(r, (uint32_t)w, &rest)) return E_FALLBACK;
    *out = ((1ull << w) | rest) - 1;
    return E_OK;
}

/* -- growable uint64 vector ---------------------------------------------- */

typedef struct {
    uint64_t *data;
    size_t len;
    size_t cap;
    int fixed; /* caller-owned storage (a stack array): never grown or freed */
} vec_t;

static int vec_reserve(vec_t *v, size_t extra) {
    size_t need = v->len + extra;
    size_t cap;
    uint64_t *grown;
    if (need <= v->cap) return E_OK;
    if (v->fixed) return E_FALLBACK;
    cap = v->cap ? v->cap : 256;
    while (cap < need) cap *= 2;
    grown = (uint64_t *)realloc(v->data, cap * sizeof(uint64_t));
    if (!grown) return E_FALLBACK;
    v->data = grown;
    v->cap = cap;
    return E_OK;
}

static void vec_free(vec_t *v) {
    free(v->data);
    v->data = NULL;
    v->len = v->cap = 0;
}

/* Lemma 2.2 monotone sequence: append the decoded values to ``out``. */
static int br_monotone(br_t *r, vec_t *out, uint32_t *count_out) {
    uint64_t count, low_width, high = 0;
    size_t base;
    uint64_t i;
    if (br_gamma(r, &count)) return E_FALLBACK;
    if (count > MAX_COUNT) return E_FALLBACK;
    *count_out = (uint32_t)count;
    if (count == 0) return E_OK;
    if (br_gamma(r, &low_width)) return E_FALLBACK;
    if (low_width > 62) return E_FALLBACK;
    base = out->len;
    if (vec_reserve(out, (size_t)count)) return E_FALLBACK;
    out->len += (size_t)count;
    for (i = 0; i < count; i++) {
        uint64_t low = 0;
        if (low_width && br_read(r, (uint32_t)low_width, &low)) return E_FALLBACK;
        out->data[base + i] = low;
    }
    for (i = 0; i < count; i++) {
        uint64_t zeros;
        if (br_unary(r, &zeros)) return E_FALLBACK;
        high += zeros;
        if (high >> (63 - low_width)) return E_FALLBACK;
        out->data[base + i] |= high << low_width;
    }
    return E_OK;
}

/* -- generic bulk primitives --------------------------------------------- */

/* One LEB128 varint from buf[*pos, end) into *out, advancing *pos; 1 (and
 * nothing consumed) where repro.encoding.varint.decode_uvarint would raise
 * — truncated, or a 64-bit shift exceeded — or the value needs more than
 * 64 bits, which decode_uvarint accepts but C cannot hold. */
static inline int uvarint_at(const uint8_t *buf, uint64_t end, uint64_t *pos,
                             uint64_t *out) {
    uint64_t p = *pos;
    uint64_t value = 0;
    uint32_t shift = 0;
    for (;;) {
        uint8_t byte;
        if (p >= end) return E_FALLBACK;
        byte = buf[p++];
        if (shift == 63 && (byte & 0x7Eu)) return E_FALLBACK;
        value |= ((uint64_t)(byte & 0x7Fu)) << shift;
        if (!(byte & 0x80u)) break;
        shift += 7;
        if (shift > 63) return E_FALLBACK;
    }
    *pos = p;
    *out = value;
    return E_OK;
}

/* ``count`` LEB128 varints starting at byte ``start``. */
int repro_varint_many(const uint8_t *buf, uint64_t buf_len, uint64_t start,
                      uint64_t count, uint64_t *out, uint64_t *end_pos) {
    uint64_t pos = start;
    uint64_t i;
    for (i = 0; i < count; i++) {
        if (uvarint_at(buf, buf_len, &pos, &out[i])) return E_FALLBACK;
    }
    *end_pos = pos;
    return E_OK;
}

/* ``count`` Elias gamma codes starting at bit ``bit_start``. */
int repro_gamma_many(const uint8_t *buf, uint64_t bit_start, uint64_t bit_end,
                     uint64_t count, uint64_t *out, uint64_t *end_bit) {
    br_t r = {buf, bit_start, bit_end};
    uint64_t i;
    for (i = 0; i < count; i++) {
        if (br_gamma(&r, &out[i])) return E_FALLBACK;
    }
    *end_bit = r.pos;
    return E_OK;
}

/* ``count`` unary codes starting at bit ``bit_start``. */
int repro_unary_many(const uint8_t *buf, uint64_t bit_start, uint64_t bit_end,
                     uint64_t count, uint64_t *out, uint64_t *end_bit) {
    br_t r = {buf, bit_start, bit_end};
    uint64_t i;
    for (i = 0; i < count; i++) {
        if (br_unary(&r, &out[i])) return E_FALLBACK;
    }
    *end_bit = r.pos;
    return E_OK;
}

/* -- hld-fixed ------------------------------------------------------------ */

typedef struct {
    uint64_t root_distance;
    uint32_t count;
    size_t level_start; /* base index into the shared ids/exits vectors */
} hld_label_t;

typedef struct {
    hld_label_t *labels;
    vec_t ids;
    vec_t exits;
    uint32_t id_width;
    uint32_t distance_width;
} hld_arena_t;

static void hld_arena_free(hld_arena_t *a) {
    free(a->labels);
    vec_free(&a->ids);
    vec_free(&a->exits);
}

/* Decode the labels of ``nodes`` (slot order) into the arena.  All labels
 * must share one (id_width, distance_width) header — a per-store invariant
 * of the encoder; anything else falls back. */
static int hld_decode_all(const uint8_t *payload, const uint64_t *offs,
                          const uint64_t *lens, int64_t n_total,
                          const int32_t *nodes, int64_t n_nodes,
                          hld_arena_t *a) {
    int64_t s;
    memset(a, 0, sizeof(*a));
    a->labels = (hld_label_t *)malloc((size_t)n_nodes * sizeof(hld_label_t));
    if (!a->labels) return E_FALLBACK;
    for (s = 0; s < n_nodes; s++) {
        int32_t node = nodes[s];
        br_t r;
        uint64_t idw, dw, count, rd;
        uint32_t level;
        hld_label_t *lab = &a->labels[s];
        if (node < 0 || node >= n_total) goto fail;
        r.base = payload;
        r.pos = offs[node] * 8;
        r.end = r.pos + lens[node];
        if (br_gamma(&r, &idw) || br_gamma(&r, &dw) || br_gamma(&r, &count))
            goto fail;
        if (idw == 0 || idw > MAX_VALUE_BITS || dw == 0 || dw > MAX_VALUE_BITS ||
            count > MAX_COUNT)
            goto fail;
        if (s == 0) {
            a->id_width = (uint32_t)idw;
            a->distance_width = (uint32_t)dw;
        } else if (a->id_width != (uint32_t)idw ||
                   a->distance_width != (uint32_t)dw) {
            goto fail;
        }
        if (br_read(&r, (uint32_t)dw, &rd)) goto fail;
        lab->root_distance = rd;
        lab->count = (uint32_t)count;
        lab->level_start = a->ids.len;
        if (vec_reserve(&a->ids, (size_t)count) ||
            vec_reserve(&a->exits, (size_t)count))
            goto fail;
        for (level = 0; level < (uint32_t)count; level++) {
            uint64_t path_id, exit_distance;
            if (br_read(&r, (uint32_t)idw, &path_id) ||
                br_read(&r, (uint32_t)dw, &exit_distance))
                goto fail;
            a->ids.data[a->ids.len++] = path_id;
            a->exits.data[a->exits.len++] = exit_distance;
        }
    }
    return E_OK;
fail:
    hld_arena_free(a);
    return E_FALLBACK;
}

/* Deepest-common-heavy-path distance; err set on foreign-tree pairs. */
static inline int64_t hld_dist(const hld_arena_t *a, int64_t u, int64_t v,
                               int *err) {
    const hld_label_t *lu = &a->labels[u], *lv = &a->labels[v];
    const uint64_t *iu = a->ids.data + lu->level_start;
    const uint64_t *iv = a->ids.data + lv->level_start;
    uint32_t n = lu->count < lv->count ? lu->count : lv->count;
    uint32_t t = 0;
    uint64_t eu, ev, nca;
    while (t < n && iu[t] == iv[t]) t++;
    if (t == 0) {
        *err = 1;
        return 0;
    }
    eu = a->exits.data[lu->level_start + t - 1];
    ev = a->exits.data[lv->level_start + t - 1];
    nca = eu < ev ? eu : ev;
    return (int64_t)(lu->root_distance + lv->root_distance) - 2 * (int64_t)nca;
}

int repro_hld_batch(const uint8_t *payload, const uint64_t *offs,
                    const uint64_t *lens, int64_t n_total, const int32_t *nodes,
                    int64_t n_nodes, const int32_t *ui, const int32_t *vi,
                    int64_t n_pairs, int64_t *out) {
    hld_arena_t a;
    int64_t p;
    int err = 0;
    if (n_nodes <= 0) return E_FALLBACK;
    if (hld_decode_all(payload, offs, lens, n_total, nodes, n_nodes, &a))
        return E_FALLBACK;
    for (p = 0; p < n_pairs; p++) {
        int32_t u = ui[p], v = vi[p];
        if (u < 0 || u >= n_nodes || v < 0 || v >= n_nodes) {
            err = 1;
            break;
        }
        out[p] = hld_dist(&a, u, v, &err);
        if (err) break;
    }
    hld_arena_free(&a);
    return err ? E_FALLBACK : E_OK;
}

int repro_hld_matrix(const uint8_t *payload, const uint64_t *offs,
                     const uint64_t *lens, int64_t n_total,
                     const int32_t *nodes, int64_t n_nodes, int64_t *out) {
    hld_arena_t a;
    int64_t i, j;
    int err = 0;
    if (n_nodes <= 0) return E_FALLBACK;
    if (hld_decode_all(payload, offs, lens, n_total, nodes, n_nodes, &a))
        return E_FALLBACK;
    for (i = 0; i < n_nodes && !err; i++) {
        out[i * n_nodes + i] = hld_dist(&a, i, i, &err);
        for (j = i + 1; j < n_nodes && !err; j++) {
            int64_t d = hld_dist(&a, i, j, &err);
            out[i * n_nodes + j] = d;
            out[j * n_nodes + i] = d;
        }
    }
    hld_arena_free(&a);
    return err ? E_FALLBACK : E_OK;
}

/* One pair, no shared state: the thread-safe single-query entry.  Returns
 * the distance or PAIR_DECLINE. */
int64_t repro_hld_pair(const uint8_t *payload, const uint64_t *offs,
                       const uint64_t *lens, int64_t n_total, int64_t u,
                       int64_t v) {
    hld_arena_t a;
    int32_t nodes[2];
    int err = 0;
    int64_t d;
    if (u < 0 || u >= n_total || v < 0 || v >= n_total) return PAIR_DECLINE;
    nodes[0] = (int32_t)u;
    nodes[1] = (int32_t)v;
    if (hld_decode_all(payload, offs, lens, n_total, nodes, 2, &a))
        return PAIR_DECLINE;
    d = hld_dist(&a, 0, 1, &err);
    hld_arena_free(&a);
    return err ? PAIR_DECLINE : d;
}

/* FNV-1a-style fold over the decoded fields, in node order — the Python
 * tiers compute the identical fold over parse_many labels, so equal
 * checksums certify the decoders agree on every field of every label. */
int repro_hld_checksum(const uint8_t *payload, const uint64_t *offs,
                       const uint64_t *lens, int64_t n_total,
                       const int32_t *nodes, int64_t n_nodes, uint64_t *out) {
    hld_arena_t a;
    uint64_t h = 1469598103934665603ull;
    const uint64_t prime = 1099511628211ull;
    int64_t s;
    uint32_t level;
    if (n_nodes <= 0) return E_FALLBACK;
    if (hld_decode_all(payload, offs, lens, n_total, nodes, n_nodes, &a))
        return E_FALLBACK;
    for (s = 0; s < n_nodes; s++) {
        const hld_label_t *lab = &a.labels[s];
        h = (h ^ lab->root_distance) * prime;
        h = (h ^ lab->count) * prime;
        for (level = 0; level < lab->count; level++) {
            h = (h ^ a.ids.data[lab->level_start + level]) * prime;
            h = (h ^ a.exits.data[lab->level_start + level]) * prime;
        }
    }
    hld_arena_free(&a);
    *out = h;
    return E_OK;
}

/* -- freedman ------------------------------------------------------------- */

typedef struct {
    uint64_t node_id;
    uint64_t root_distance;
    uint64_t domination;
    uint32_t depth;
    size_t level_start;     /* base into the per-level vectors */
    size_t frag_ref_start;  /* base into frag_refs */
    uint32_t frag_ref_count;
    size_t frag_dist_start; /* base into frag_dists */
    uint32_t frag_dist_count;
} fr_label_t;

typedef struct {
    fr_label_t *labels;
    vec_t cw_val;    /* per level: codeword bits as an integer */
    vec_t cw_len;    /* per level: codeword length */
    vec_t lw;        /* per level: light weight */
    vec_t skip;      /* per level: entry skipped flag */
    vec_t kept_val;  /* per level: truncated entry bits */
    vec_t kept_len;  /* per level: truncated entry length */
    vec_t pushed;    /* per level: bits pushed to the accumulator */
    vec_t acc_off;   /* per level: absolute bit offset of the accumulator */
    vec_t acc_len;   /* per level: accumulator length */
    vec_t frag_refs;
    vec_t frag_dists;
} fr_arena_t;

static void fr_arena_free(fr_arena_t *a) {
    free(a->labels);
    vec_free(&a->cw_val);
    vec_free(&a->cw_len);
    vec_free(&a->lw);
    vec_free(&a->skip);
    vec_free(&a->kept_val);
    vec_free(&a->kept_len);
    vec_free(&a->pushed);
    vec_free(&a->acc_off);
    vec_free(&a->acc_len);
    vec_free(&a->frag_refs);
    vec_free(&a->frag_dists);
}

static int fr_decode_all(const uint8_t *payload, const uint64_t *offs,
                         const uint64_t *lens, int64_t n_total,
                         const int32_t *nodes, int64_t n_nodes,
                         fr_arena_t *a) {
    int64_t s;
    memset(a, 0, sizeof(*a));
    a->labels = (fr_label_t *)malloc((size_t)n_nodes * sizeof(fr_label_t));
    if (!a->labels) return E_FALLBACK;
    for (s = 0; s < n_nodes; s++) {
        int32_t node = nodes[s];
        br_t r;
        uint64_t depth, value;
        uint32_t level, count;
        fr_label_t *lab = &a->labels[s];
        if (node < 0 || node >= n_total) goto fail;
        r.base = payload;
        r.pos = offs[node] * 8;
        r.end = r.pos + lens[node];
        if (br_delta(&r, &lab->node_id)) goto fail;
        if (br_delta(&r, &lab->root_distance)) goto fail;
        if (br_delta(&r, &lab->domination)) goto fail;
        if (lab->root_distance >> MAX_VALUE_BITS) goto fail;
        if (br_gamma(&r, &depth)) goto fail;
        if (depth > MAX_COUNT) goto fail;
        lab->depth = (uint32_t)depth;
        lab->level_start = a->cw_val.len;
        if (vec_reserve(&a->cw_val, (size_t)depth) ||
            vec_reserve(&a->cw_len, (size_t)depth) ||
            vec_reserve(&a->lw, (size_t)depth) ||
            vec_reserve(&a->skip, (size_t)depth) ||
            vec_reserve(&a->kept_val, (size_t)depth) ||
            vec_reserve(&a->kept_len, (size_t)depth) ||
            vec_reserve(&a->pushed, (size_t)depth) ||
            vec_reserve(&a->acc_off, (size_t)depth) ||
            vec_reserve(&a->acc_len, (size_t)depth))
            goto fail;
        for (level = 0; level < (uint32_t)depth; level++) {
            uint64_t len;
            if (br_gamma(&r, &len) || len > 63) goto fail;
            if (br_read(&r, (uint32_t)len, &value)) goto fail;
            a->cw_len.data[a->cw_len.len++] = len;
            a->cw_val.data[a->cw_val.len++] = value;
        }
        for (level = 0; level < (uint32_t)depth; level++) {
            if (br_gamma(&r, &value) || value >> MAX_VALUE_BITS) goto fail;
            a->lw.data[a->lw.len++] = value;
        }
        lab->frag_ref_start = a->frag_refs.len;
        if (br_monotone(&r, &a->frag_refs, &count)) goto fail;
        lab->frag_ref_count = count;
        lab->frag_dist_start = a->frag_dists.len;
        if (br_monotone(&r, &a->frag_dists, &count)) goto fail;
        lab->frag_dist_count = count;
        for (level = 0; level < (uint32_t)depth; level++) {
            uint64_t bit;
            br_t *rp = &r;
            if (rp->pos >= rp->end) goto fail;
            bit = (rp->base[rp->pos >> 3] >> (7 - (rp->pos & 7))) & 1u;
            rp->pos++;
            a->skip.data[a->skip.len++] = bit;
            if (bit) {
                a->kept_val.data[a->kept_val.len++] = 0;
                a->kept_len.data[a->kept_len.len++] = 0;
                a->pushed.data[a->pushed.len++] = 0;
            } else {
                uint64_t len, pushed;
                if (br_gamma(&r, &len) || len > MAX_VALUE_BITS) goto fail;
                if (br_read(&r, (uint32_t)len, &value)) goto fail;
                if (br_gamma(&r, &pushed) || pushed > MAX_VALUE_BITS) goto fail;
                if (len + pushed > MAX_VALUE_BITS) goto fail;
                a->kept_len.data[a->kept_len.len++] = len;
                a->kept_val.data[a->kept_val.len++] = value;
                a->pushed.data[a->pushed.len++] = pushed;
            }
        }
        for (level = 0; level < (uint32_t)depth; level++) {
            uint64_t len;
            if (br_gamma(&r, &len)) goto fail;
            if (r.pos + len > r.end) goto fail;
            a->acc_off.data[a->acc_off.len++] = r.pos;
            a->acc_len.data[a->acc_len.len++] = len;
            r.pos += len;
        }
    }
    return E_OK;
fail:
    fr_arena_free(a);
    return E_FALLBACK;
}

/* Lemma 3.1 query: critical level from the light codes, dominating side
 * from the postorder domination numbers, entry reconstructed from the
 * dominating side's truncated bits plus the dominated side's accumulator. */
static inline int64_t fr_dist(const fr_arena_t *a, const uint8_t *payload,
                              int64_t u, int64_t v, int *err) {
    const fr_label_t *lu = &a->labels[u], *lv = &a->labels[v];
    const fr_label_t *dom, *sub;
    size_t du, dv, dd, ds;
    uint32_t n, level;
    uint64_t value, pushed, ref, reference;
    int64_t nca;
    if (lu->node_id == lv->node_id) return 0;
    n = lu->depth < lv->depth ? lu->depth : lv->depth;
    du = lu->level_start;
    dv = lv->level_start;
    level = 0;
    while (level < n && a->cw_len.data[du + level] == a->cw_len.data[dv + level] &&
           a->cw_val.data[du + level] == a->cw_val.data[dv + level])
        level++;
    if (lu->domination < lv->domination) {
        dom = lu;
        sub = lv;
    } else {
        dom = lv;
        sub = lu;
    }
    if (level >= dom->depth || level >= sub->depth) goto bad;
    dd = dom->level_start;
    ds = sub->level_start;
    if (a->skip.data[dd + level]) goto bad;
    value = a->kept_val.data[dd + level];
    pushed = a->pushed.data[dd + level];
    if (pushed) {
        uint64_t start = a->acc_len.data[dd + level];
        uint64_t sub_len = a->acc_len.data[ds + level];
        uint64_t segment;
        br_t r;
        if (start + pushed > sub_len) goto bad;
        if (a->kept_len.data[dd + level] + pushed > MAX_VALUE_BITS) goto bad;
        r.base = payload;
        r.pos = a->acc_off.data[ds + level] + start;
        r.end = a->acc_off.data[ds + level] + sub_len;
        if (br_read(&r, (uint32_t)pushed, &segment)) goto bad;
        value = (value << pushed) | segment;
    }
    if (level >= dom->frag_ref_count) goto bad;
    ref = a->frag_refs.data[dom->frag_ref_start + level];
    if (ref >= dom->frag_dist_count) goto bad;
    reference = a->frag_dists.data[dom->frag_dist_start + ref];
    if (reference >> MAX_VALUE_BITS) goto bad;
    nca = (int64_t)(reference + value) - (int64_t)a->lw.data[dd + level];
    return (int64_t)(lu->root_distance + lv->root_distance) - 2 * nca;
bad:
    *err = 1;
    return 0;
}

int repro_freedman_batch(const uint8_t *payload, const uint64_t *offs,
                         const uint64_t *lens, int64_t n_total,
                         const int32_t *nodes, int64_t n_nodes,
                         const int32_t *ui, const int32_t *vi, int64_t n_pairs,
                         int64_t *out) {
    fr_arena_t a;
    int64_t p;
    int err = 0;
    if (n_nodes <= 0) return E_FALLBACK;
    if (fr_decode_all(payload, offs, lens, n_total, nodes, n_nodes, &a))
        return E_FALLBACK;
    for (p = 0; p < n_pairs; p++) {
        int32_t u = ui[p], v = vi[p];
        if (u < 0 || u >= n_nodes || v < 0 || v >= n_nodes) {
            err = 1;
            break;
        }
        out[p] = fr_dist(&a, payload, u, v, &err);
        if (err) break;
    }
    fr_arena_free(&a);
    return err ? E_FALLBACK : E_OK;
}

int repro_freedman_matrix(const uint8_t *payload, const uint64_t *offs,
                          const uint64_t *lens, int64_t n_total,
                          const int32_t *nodes, int64_t n_nodes, int64_t *out) {
    fr_arena_t a;
    int64_t i, j;
    int err = 0;
    if (n_nodes <= 0) return E_FALLBACK;
    if (fr_decode_all(payload, offs, lens, n_total, nodes, n_nodes, &a))
        return E_FALLBACK;
    for (i = 0; i < n_nodes && !err; i++) {
        out[i * n_nodes + i] = fr_dist(&a, payload, i, i, &err);
        for (j = i + 1; j < n_nodes && !err; j++) {
            int64_t d = fr_dist(&a, payload, i, j, &err);
            out[i * n_nodes + j] = d;
            out[j * n_nodes + i] = d;
        }
    }
    fr_arena_free(&a);
    return err ? E_FALLBACK : E_OK;
}

/* One pair, no shared state; see repro_hld_pair. */
int64_t repro_freedman_pair(const uint8_t *payload, const uint64_t *offs,
                            const uint64_t *lens, int64_t n_total, int64_t u,
                            int64_t v) {
    fr_arena_t a;
    int32_t nodes[2];
    int err = 0;
    int64_t d;
    if (u < 0 || u >= n_total || v < 0 || v >= n_total) return PAIR_DECLINE;
    nodes[0] = (int32_t)u;
    nodes[1] = (int32_t)v;
    if (fr_decode_all(payload, offs, lens, n_total, nodes, 2, &a))
        return PAIR_DECLINE;
    d = fr_dist(&a, payload, 0, 1, &err);
    fr_arena_free(&a);
    return err ? PAIR_DECLINE : d;
}

/* Same field fold as repro_hld_checksum, over the Freedman grammar.  The
 * accumulators are folded as (length, low 64 value bits) — the only fields
 * a >64-bit value can reach. */
int repro_freedman_checksum(const uint8_t *payload, const uint64_t *offs,
                            const uint64_t *lens, int64_t n_total,
                            const int32_t *nodes, int64_t n_nodes,
                            uint64_t *out) {
    fr_arena_t a;
    uint64_t h = 1469598103934665603ull;
    const uint64_t prime = 1099511628211ull;
    int64_t s;
    uint32_t i;
    if (n_nodes <= 0) return E_FALLBACK;
    if (fr_decode_all(payload, offs, lens, n_total, nodes, n_nodes, &a))
        return E_FALLBACK;
    for (s = 0; s < n_nodes; s++) {
        const fr_label_t *lab = &a.labels[s];
        size_t base = lab->level_start;
        h = (h ^ lab->node_id) * prime;
        h = (h ^ lab->root_distance) * prime;
        h = (h ^ lab->domination) * prime;
        h = (h ^ lab->depth) * prime;
        for (i = 0; i < lab->depth; i++) {
            h = (h ^ a.cw_len.data[base + i]) * prime;
            h = (h ^ a.cw_val.data[base + i]) * prime;
            h = (h ^ a.lw.data[base + i]) * prime;
            h = (h ^ a.skip.data[base + i]) * prime;
            h = (h ^ a.kept_len.data[base + i]) * prime;
            h = (h ^ a.kept_val.data[base + i]) * prime;
            h = (h ^ a.pushed.data[base + i]) * prime;
        }
        for (i = 0; i < lab->frag_ref_count; i++)
            h = (h ^ a.frag_refs.data[lab->frag_ref_start + i]) * prime;
        for (i = 0; i < lab->frag_dist_count; i++)
            h = (h ^ a.frag_dists.data[lab->frag_dist_start + i]) * prime;
        for (i = 0; i < lab->depth; i++) {
            uint64_t len = a.acc_len.data[base + i];
            uint64_t low = 0;
            br_t r;
            r.base = payload;
            r.end = a.acc_off.data[base + i] + len;
            if (len > 63) {
                r.pos = r.end - 64;
                /* low 64 bits = last 64 bits of the accumulator stream */
                {
                    uint64_t hi, lo;
                    r.pos = r.end - 64;
                    if (br_read(&r, 32, &hi) || br_read(&r, 32, &lo)) {
                        fr_arena_free(&a);
                        return E_FALLBACK;
                    }
                    low = (hi << 32) | lo;
                }
            } else if (len) {
                r.pos = r.end - len;
                if (br_read(&r, (uint32_t)len, &low)) {
                    fr_arena_free(&a);
                    return E_FALLBACK;
                }
            }
            h = (h ^ len) * prime;
            h = (h ^ low) * prime;
        }
    }
    fr_arena_free(&a);
    *out = h;
    return E_OK;
}

/* -- k-distance ------------------------------------------------------------ */

/* Longest monotone sequence the decoder accepts.  A valid label stores one
 * entry per significant ancestor within k (at most log2 n + 2 of them) and
 * at most k Lemma 4.5 table entries, so this turns away only corrupt
 * counts and a compact regime forced at an unusually large k. */
#define KD_MAX_SEQ 64
/* ceiling on the trie heights (range identifiers shift by them) */
#define KD_MAX_HEIGHT 62

enum { KD_HEIGHTS, KD_CHILD, KD_DIST, KD_FWD, KD_BWD, KD_SEQS };

typedef struct {
    uint64_t pre;
    uint64_t light_depth;
    uint64_t alpha;
    uint64_t position_mod;
    uint32_t has_extension;
    uint32_t compact;
    size_t start[KD_SEQS]; /* base of each monotone sequence in the values */
    uint32_t count[KD_SEQS];
} kd_label_t;

#define KD_VAL(lab, seq, index) vals[(lab)->start[seq] + (size_t)(index)]

static inline int br_bit(br_t *r, uint32_t *bit) {
    if (r->pos >= r->end) return E_FALLBACK;
    *bit = (r->base[r->pos >> 3] >> (7 - (r->pos & 7))) & 1u;
    r->pos++;
    return E_OK;
}

/* One Lemma 2.2 sequence into ``vals``; every value must be <= max_value. */
static int kd_sequence(br_t *r, vec_t *vals, kd_label_t *lab, int seq,
                       uint64_t max_value) {
    br_t peek = *r;
    uint64_t count;
    uint32_t got, i;
    if (br_gamma(&peek, &count) || count > KD_MAX_SEQ) return E_FALLBACK;
    lab->start[seq] = vals->len;
    if (br_monotone(r, vals, &got)) return E_FALLBACK;
    lab->count[seq] = got;
    for (i = 0; i < got; i++)
        if (vals->data[lab->start[seq] + i] > max_value) return E_FALLBACK;
    return E_OK;
}

/* The grammar of repro.core.kdistance._parse_word: delta pre, gamma light
 * depth, extension and compact flags, the heights, child heights and
 * distances sequences, delta alpha, and in the compact regime gamma
 * position_mod plus the forward and backward tables. */
static int kd_decode(const uint8_t *payload, const uint64_t *offs,
                     const uint64_t *lens, int64_t node, vec_t *vals,
                     kd_label_t *lab) {
    const uint64_t value_cap = (1ull << MAX_VALUE_BITS) - 1;
    br_t r;
    r.base = payload;
    r.pos = offs[node] * 8;
    r.end = r.pos + lens[node];
    if (br_delta(&r, &lab->pre) || lab->pre > value_cap) return E_FALLBACK;
    if (br_gamma(&r, &lab->light_depth) || lab->light_depth > value_cap)
        return E_FALLBACK;
    if (br_bit(&r, &lab->has_extension) || br_bit(&r, &lab->compact))
        return E_FALLBACK;
    if (kd_sequence(&r, vals, lab, KD_HEIGHTS, KD_MAX_HEIGHT) ||
        kd_sequence(&r, vals, lab, KD_CHILD, KD_MAX_HEIGHT) ||
        kd_sequence(&r, vals, lab, KD_DIST, value_cap))
        return E_FALLBACK;
    if (br_delta(&r, &lab->alpha) || lab->alpha > value_cap) return E_FALLBACK;
    if (lab->compact) {
        if (br_gamma(&r, &lab->position_mod)) return E_FALLBACK;
        if (kd_sequence(&r, vals, lab, KD_FWD, UINT64_MAX) ||
            kd_sequence(&r, vals, lab, KD_BWD, UINT64_MAX))
            return E_FALLBACK;
    } else {
        lab->position_mod = 0;
        lab->start[KD_FWD] = lab->start[KD_BWD] = vals->len;
        lab->count[KD_FWD] = lab->count[KD_BWD] = 0;
    }
    return E_OK;
}

/* range_identifier: truncate ``height`` low bits, set the height-th bit. */
static inline uint64_t kd_identifier(uint64_t member, uint64_t height) {
    if (height == 0) return member;
    return ((member >> height) << height) | (1ull << (height - 1));
}

/* KDistanceLabel.child_identifier(i) == child_identifier(j); the caller has
 * checked 1 <= i <= count[KD_CHILD] on both sides. */
static inline int kd_same_child(const uint64_t *vals, const kd_label_t *lu,
                                int64_t i, const kd_label_t *lv, int64_t j) {
    uint64_t hu = KD_VAL(lu, KD_CHILD, i - 1);
    uint64_t hv = KD_VAL(lv, KD_CHILD, j - 1);
    return hu == hv && kd_identifier(lu->pre, hu) == kd_identifier(lv->pre, hv);
}

/* The answers below mirror KDistanceScheme branch for branch: a distance,
 * -1 for "beyond k" (None), or *err = 1 wherever the Python decoder would
 * raise or index from the end (a corrupt label) — the caller then declines
 * and the Python path produces the reference answer or error. */

/* _top_path_distance */
static int64_t kd_top_path(const uint64_t *vals, const kd_label_t *lu,
                           int64_t iu, const kd_label_t *lv, int64_t iv,
                           int64_t k, int *err) {
    const uint64_t capped = 2 * (uint64_t)k + 1;
    const kd_label_t *lower, *higher;
    uint64_t id_u, id_v, lower_id, higher_id, step, direct;
    if (!lu->compact || (lu->alpha < capped && lv->alpha < capped))
        return lu->alpha > lv->alpha ? (int64_t)(lu->alpha - lv->alpha)
                                     : (int64_t)(lv->alpha - lu->alpha);
    if (iu < 0 || iu >= lu->count[KD_HEIGHTS] || iv < 0 ||
        iv >= lv->count[KD_HEIGHTS]) {
        *err = 1;
        return 0;
    }
    id_u = kd_identifier(lu->pre, KD_VAL(lu, KD_HEIGHTS, iu));
    id_v = kd_identifier(lv->pre, KD_VAL(lv, KD_HEIGHTS, iv));
    if (id_u == id_v) return 0;
    if (id_u < id_v) {
        lower = lu, higher = lv, lower_id = id_u, higher_id = id_v;
    } else {
        lower = lv, higher = lu, lower_id = id_v, higher_id = id_u;
    }
    step = (higher->position_mod % (uint64_t)k + (uint64_t)k -
            lower->position_mod % (uint64_t)k) % (uint64_t)k;
    if (step == 0) step = (uint64_t)k;
    if (step > lower->count[KD_FWD] || step > higher->count[KD_BWD]) return -1;
    direct = 63 - (uint64_t)__builtin_clzll(higher_id - lower_id);
    if (KD_VAL(lower, KD_FWD, step - 1) == direct &&
        KD_VAL(higher, KD_BWD, step - 1) == direct)
        return (int64_t)step;
    return -1;
}

static inline int64_t kd_within(int64_t total, int64_t k) {
    return total <= k ? total : -1;
}

/* _distance_with_match: (i, j) index the nearest common significant
 * ancestor in the two labels. */
static int64_t kd_with_match(const uint64_t *vals, const kd_label_t *lu,
                             int64_t i, const kd_label_t *lv, int64_t j,
                             int64_t k, int *err) {
    int u_has = i < lu->count[KD_DIST];
    int v_has = j < lv->count[KD_DIST];
    const kd_label_t *far, *near;
    int64_t far_index, near_index, between, beta;
    if (u_has && v_has) {
        if (i == 0) return kd_within((int64_t)KD_VAL(lv, KD_DIST, j), k);
        if (j == 0) return kd_within((int64_t)KD_VAL(lu, KD_DIST, i), k);
        if (i > lu->count[KD_CHILD] || j > lv->count[KD_CHILD]) goto bad;
        if (kd_same_child(vals, lu, i, lv, j)) {
            int64_t du = (int64_t)KD_VAL(lu, KD_DIST, i) -
                         (int64_t)KD_VAL(lu, KD_DIST, i - 1);
            int64_t dv = (int64_t)KD_VAL(lv, KD_DIST, j) -
                         (int64_t)KD_VAL(lv, KD_DIST, j - 1);
            return kd_within((int64_t)KD_VAL(lu, KD_DIST, i - 1) +
                                 (int64_t)KD_VAL(lv, KD_DIST, j - 1) +
                                 (du > dv ? du - dv : dv - du),
                             k);
        }
        return kd_within((int64_t)KD_VAL(lu, KD_DIST, i) +
                             (int64_t)KD_VAL(lv, KD_DIST, j),
                         k);
    }
    if (!u_has && !v_has) {
        /* both matched at their extension entry */
        if (i == 0 || j == 0 || i > lu->count[KD_CHILD] ||
            j > lv->count[KD_CHILD] || i - 1 >= lu->count[KD_DIST] ||
            j - 1 >= lv->count[KD_DIST])
            goto bad;
        if (!kd_same_child(vals, lu, i, lv, j)) return -1;
        between = kd_top_path(vals, lu, i - 1, lv, j - 1, k, err);
        if (*err || between < 0) return -1;
        return kd_within((int64_t)KD_VAL(lu, KD_DIST, i - 1) +
                             (int64_t)KD_VAL(lv, KD_DIST, j - 1) + between,
                         k);
    }
    /* mixed: exactly one side matched at its extension entry */
    if (u_has) {
        far = lv, far_index = j, near = lu, near_index = i;
    } else {
        far = lu, far_index = i, near = lv, near_index = j;
    }
    if (near_index == 0) return -1;
    if (far_index == 0 || far_index > far->count[KD_CHILD] ||
        near_index > near->count[KD_CHILD] || far->count[KD_DIST] == 0)
        goto bad;
    if (!kd_same_child(vals, far, far_index, near, near_index)) return -1;
    beta = (int64_t)KD_VAL(near, KD_DIST, near_index) -
           (int64_t)KD_VAL(near, KD_DIST, near_index - 1);
    if (far->compact && far->alpha >= 2 * (uint64_t)k + 1) return -1;
    between = (int64_t)far->alpha + 1 - beta;
    if (between < 0) between = -between;
    return kd_within(
        (int64_t)KD_VAL(far, KD_DIST, far->count[KD_DIST] - 1) +
            (int64_t)KD_VAL(near, KD_DIST, near_index - 1) + between,
        k);
bad:
    *err = 1;
    return 0;
}

/* bounded_distance with _deepest_common_entry inlined.  Walking the light
 * depths top-down, the entry indices only grow, so the first index past a
 * label's stored entries ends the search. */
static int64_t kd_dist(const uint64_t *vals, const kd_label_t *lu,
                       const kd_label_t *lv, int64_t k, int *err) {
    uint64_t depth = lu->light_depth < lv->light_depth ? lu->light_depth
                                                       : lv->light_depth;
    uint64_t base_u = lu->light_depth - depth, base_v = lv->light_depth - depth;
    uint64_t t, top_u, top_v;
    int64_t between;
    if (lu->pre == lv->pre) return 0;
    for (t = 0; t <= depth; t++) {
        uint64_t i = base_u + t, j = base_v + t, hu, hv;
        if (i >= lu->count[KD_HEIGHTS] || j >= lv->count[KD_HEIGHTS]) break;
        hu = KD_VAL(lu, KD_HEIGHTS, i);
        hv = KD_VAL(lv, KD_HEIGHTS, j);
        if (hu == hv && kd_identifier(lu->pre, hu) == kd_identifier(lv->pre, hv))
            return kd_with_match(vals, lu, (int64_t)i, lv, (int64_t)j, k, err);
    }
    /* no common significant ancestor stored: both chains must be exhausted
     * (their tops lie on the root heavy path) for a distance within k */
    if (lu->count[KD_DIST] != lu->light_depth + 1 ||
        lv->count[KD_DIST] != lv->light_depth + 1)
        return -1;
    top_u = lu->count[KD_DIST] - 1;
    top_v = lv->count[KD_DIST] - 1;
    between = kd_top_path(vals, lu, (int64_t)top_u, lv, (int64_t)top_v, k, err);
    if (*err || between < 0) return -1;
    return kd_within((int64_t)KD_VAL(lu, KD_DIST, top_u) +
                         (int64_t)KD_VAL(lv, KD_DIST, top_v) + between,
                     k);
}

typedef struct {
    kd_label_t *labels;
    vec_t vals;
} kd_arena_t;

static void kd_arena_free(kd_arena_t *a) {
    free(a->labels);
    vec_free(&a->vals);
}

static int kd_decode_all(const uint8_t *payload, const uint64_t *offs,
                         const uint64_t *lens, int64_t n_total,
                         const int32_t *nodes, int64_t n_nodes,
                         kd_arena_t *a) {
    int64_t s;
    memset(a, 0, sizeof(*a));
    a->labels = (kd_label_t *)malloc((size_t)n_nodes * sizeof(kd_label_t));
    if (!a->labels) return E_FALLBACK;
    for (s = 0; s < n_nodes; s++) {
        if (nodes[s] < 0 || nodes[s] >= n_total ||
            kd_decode(payload, offs, lens, nodes[s], &a->vals, &a->labels[s])) {
            kd_arena_free(a);
            return E_FALLBACK;
        }
    }
    return E_OK;
}

static inline int kd_k_ok(int64_t k) {
    return k >= 1 && k < (1ll << MAX_VALUE_BITS);
}

int repro_kdist_batch(const uint8_t *payload, const uint64_t *offs,
                      const uint64_t *lens, int64_t n_total,
                      const int32_t *nodes, int64_t n_nodes, const int32_t *ui,
                      const int32_t *vi, int64_t n_pairs, int64_t k,
                      int64_t *out) {
    kd_arena_t a;
    int64_t p;
    int err = 0;
    if (n_nodes <= 0 || !kd_k_ok(k)) return E_FALLBACK;
    if (kd_decode_all(payload, offs, lens, n_total, nodes, n_nodes, &a))
        return E_FALLBACK;
    for (p = 0; p < n_pairs && !err; p++) {
        int32_t u = ui[p], v = vi[p];
        if (u < 0 || u >= n_nodes || v < 0 || v >= n_nodes) {
            err = 1;
            break;
        }
        out[p] = kd_dist(a.vals.data, &a.labels[u], &a.labels[v], k, &err);
    }
    kd_arena_free(&a);
    return err ? E_FALLBACK : E_OK;
}

int repro_kdist_matrix(const uint8_t *payload, const uint64_t *offs,
                       const uint64_t *lens, int64_t n_total,
                       const int32_t *nodes, int64_t n_nodes, int64_t k,
                       int64_t *out) {
    kd_arena_t a;
    int64_t i, j;
    int err = 0;
    if (n_nodes <= 0 || !kd_k_ok(k)) return E_FALLBACK;
    if (kd_decode_all(payload, offs, lens, n_total, nodes, n_nodes, &a))
        return E_FALLBACK;
    for (i = 0; i < n_nodes && !err; i++) {
        const kd_label_t *li = &a.labels[i];
        out[i * n_nodes + i] = kd_dist(a.vals.data, li, li, k, &err);
        for (j = i + 1; j < n_nodes && !err; j++) {
            int64_t d = kd_dist(a.vals.data, li, &a.labels[j], k, &err);
            out[i * n_nodes + j] = d;
            out[j * n_nodes + i] = d;
        }
    }
    kd_arena_free(&a);
    return err ? E_FALLBACK : E_OK;
}

/* One pair, decoded into stack storage (no malloc, no shared state).
 * Returns the distance, -1 for "beyond k", or PAIR_DECLINE. */
int64_t repro_kdist_pair(const uint8_t *payload, const uint64_t *offs,
                         const uint64_t *lens, int64_t n_total, int64_t u,
                         int64_t v, int64_t k) {
    uint64_t storage[2 * KD_SEQS * KD_MAX_SEQ];
    vec_t vals = {storage, 0, sizeof(storage) / sizeof(storage[0]), 1};
    kd_label_t lu, lv;
    int err = 0;
    int64_t d;
    if (u < 0 || u >= n_total || v < 0 || v >= n_total || !kd_k_ok(k))
        return PAIR_DECLINE;
    if (kd_decode(payload, offs, lens, u, &vals, &lu) ||
        kd_decode(payload, offs, lens, v, &vals, &lv))
        return PAIR_DECLINE;
    d = kd_dist(storage, &lu, &lv, k, &err);
    return err ? PAIR_DECLINE : d;
}

/* Same field fold as repro_hld_checksum: the scalar fields, then each
 * sequence as (count, values...); the simple regime folds position_mod 0
 * and two empty tables. */
int repro_kdist_checksum(const uint8_t *payload, const uint64_t *offs,
                         const uint64_t *lens, int64_t n_total,
                         const int32_t *nodes, int64_t n_nodes,
                         uint64_t *out) {
    kd_arena_t a;
    uint64_t h = 1469598103934665603ull;
    const uint64_t prime = 1099511628211ull;
    int64_t s;
    int seq;
    uint32_t i;
    if (n_nodes <= 0) return E_FALLBACK;
    if (kd_decode_all(payload, offs, lens, n_total, nodes, n_nodes, &a))
        return E_FALLBACK;
    for (s = 0; s < n_nodes; s++) {
        const kd_label_t *lab = &a.labels[s];
        h = (h ^ lab->pre) * prime;
        h = (h ^ lab->light_depth) * prime;
        h = (h ^ lab->has_extension) * prime;
        h = (h ^ lab->compact) * prime;
        h = (h ^ lab->alpha) * prime;
        h = (h ^ lab->position_mod) * prime;
        for (seq = 0; seq < KD_SEQS; seq++) {
            h = (h ^ lab->count[seq]) * prime;
            for (i = 0; i < lab->count[seq]; i++)
                h = (h ^ a.vals.data[lab->start[seq] + i]) * prime;
        }
    }
    kd_arena_free(&a);
    *out = h;
    return E_OK;
}

/* -- RSP/1 QUERY lane ------------------------------------------------------
 *
 * The serving hot path, mirroring repro.serve.protocol: a frame is
 * uvarint(len(body)) + body, and a plain QUERY body is
 *   0x01, uvarint request_id, uvarint len(name), name, uvarint u, uvarint v
 * with nothing after v.  The request bytes are untrusted: every read is
 * bounded by the buffer and, inside a frame, by the frame, and anything
 * unusual ends the run unconsumed so the Python decoder meets it and
 * answers as it always has. */

#define RSP_OP_QUERY 0x01u
#define RSP_OP_RESULT 0x81u
#define RSP_KIND_EXACT 0
#define RSP_KIND_BOUNDED 1
#define RSP_MAX_FRAME_BYTES (64ull * 1024 * 1024)

/* Decode the leading run of complete plain QUERY frames for member ``name``
 * from buf[start, len), at most ``max_frames`` of them.  Frame i's request
 * id goes to ids[i] and its pair to nodes[2i], nodes[2i + 1] — the node
 * layout the batch kernels take with even/odd slot indexes.  Returns the
 * frame count and stores the offset after the last one in *end_pos.  The
 * run stops, without consuming, at the first frame that is incomplete, has
 * another opcode or member name, carries a suffix field or trailing bytes,
 * has u or v >= 2^31, or has a varint uvarint_at rejects. */
int64_t repro_rsp_queries(const uint8_t *buf, uint64_t len, uint64_t start,
                          const uint8_t *name, uint64_t name_len,
                          int64_t max_frames, uint64_t *ids, int32_t *nodes,
                          uint64_t *end_pos) {
    uint64_t pos = start;
    int64_t n = 0;
    while (n < max_frames) {
        uint64_t p = pos, body_len, body_end, request_id, got_len, u, v;
        if (uvarint_at(buf, len, &p, &body_len)) break;
        if (body_len > RSP_MAX_FRAME_BYTES || body_len > len - p) break;
        body_end = p + body_len;
        if (p == body_end || buf[p] != RSP_OP_QUERY) break;
        p++;
        if (uvarint_at(buf, body_end, &p, &request_id)) break;
        if (uvarint_at(buf, body_end, &p, &got_len)) break;
        if (got_len != name_len || got_len > body_end - p) break;
        if (name_len && memcmp(buf + p, name, name_len)) break;
        p += name_len;
        if (uvarint_at(buf, body_end, &p, &u) || u > INT32_MAX) break;
        if (uvarint_at(buf, body_end, &p, &v) || v > INT32_MAX) break;
        if (p != body_end) break;
        ids[n] = request_id;
        nodes[2 * n] = (int32_t)u;
        nodes[2 * n + 1] = (int32_t)v;
        n++;
        pos = body_end;
    }
    *end_pos = pos;
    return n;
}

static inline uint8_t *uvarint_put(uint8_t *out, uint64_t value) {
    while (value >= 0x80u) {
        *out++ = (uint8_t)(value | 0x80u);
        value >>= 7;
    }
    *out++ = (uint8_t)value;
    return out;
}

/* One single-value RESULT frame per (ids[i], values[i]) into ``out``, which
 * must hold 25 * n bytes; returns the bytes written, or -1 for a kind other
 * than exact and bounded.  Bounded values of -1 are "beyond k".  Byte for
 * byte repro.serve.protocol.encode_result_block: the body is at most 24
 * bytes, so its length prefix is one byte. */
int64_t repro_rsp_results(int32_t kind, const uint64_t *ids,
                          const int64_t *values, int64_t n, uint8_t *out) {
    uint8_t *w = out;
    int64_t i;
    if (kind != RSP_KIND_EXACT && kind != RSP_KIND_BOUNDED) return -1;
    for (i = 0; i < n; i++) {
        uint8_t *length = w++;
        uint8_t *body = w;
        *w++ = RSP_OP_RESULT;
        w = uvarint_put(w, ids[i]);
        *w++ = (uint8_t)kind;
        *w++ = 1; /* value count */
        if (kind == RSP_KIND_BOUNDED) {
            if (values[i] == -1) {
                *w++ = 0;
                *length = (uint8_t)(w - body);
                continue;
            }
            *w++ = 1;
        }
        w = uvarint_put(w, (uint64_t)values[i]);
        *length = (uint8_t)(w - body);
    }
    return (int64_t)(w - out);
}
