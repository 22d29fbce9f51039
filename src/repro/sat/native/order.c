/*
 * order.c -- the memory-order layer's order and value-axiom builder,
 * compiled into the same shared library as cdcl.c (see repro.sat.native).
 *
 * One build per per-model layer of repro.encoding.memory.  Given the
 * layer's static order (transitively closed reachability rows), the
 * vertices of its support graph (the non-init accesses), the seed pairs
 * of the same-address, fence, atomic-block and Seriality axioms, and the
 * value descriptor (below), cf_order_build
 *
 *   - seeds the pairs the value axioms name: every candidate store and
 *     its load (unless the store is forwarded to the load), and every two
 *     candidates of one load, each unless a static edge orders it;
 *   - chordalizes the support graph by min-degree elimination: a lazy
 *     (degree, vertex) heap whose stale entries are re-pushed, and an
 *     ascending neighbour walk that discovers the fill pairs;
 *   - numbers the live pairs (seeds plus fill) in sorted order, from the
 *     first free variable on;
 *   - writes the two no-3-cycle clauses of every elimination triangle,
 *     with static edges folded away.
 *
 * The build stays open while the layer's Python emitters write their
 * clauses; cf_order_values then writes the value axioms over the build's
 * literal table, minting reads-from selectors from the variable the CNF
 * has reached by then.
 *
 * Every step repeats the pure-Python reference builders of
 * tests/encoding/order_reference.py, so the two write the same pairs,
 * literals, clause ends and selectors in the same order.  The heap pops
 * the least (degree, vertex) entry, ties included, so its pop sequence
 * does not depend on how the heap is laid out.
 *
 * The value descriptor is one flat int32 array, a record per load:
 *
 *   load index, initial-value term, candidate count, guard, width, bits
 *
 * followed by one record per candidate store of that load:
 *
 *   store index, forwarded flag, address-equality literal, guard, width,
 *   bits
 *
 * Literals are CNF literals (1 and -1 are the constants TRUE and FALSE).
 * Clause ends cross the API as absolute int64 offsets into the CNF's
 * literal buffer: each copy-out takes the buffer's current length.
 *
 * Bit sets are rows of 64-bit words (bit j of a row is word j / 64, bit
 * j % 64).  Rows cross the API as little-endian bytes.  Every allocation
 * is checked: a failure frees what was built and reports it, and the
 * binding raises MemoryError.
 */

#include <stdint.h>
#include <stdlib.h>
#include <string.h>

#define ORDER_OK 0
#define ORDER_NO_MEMORY -1
#define ORDER_BAD_INPUT -2

typedef uint64_t Word;

/* A growable int32 buffer.  A failed growth sets ``failed``, and every
 * later push is dropped. */
typedef struct { int32_t *data; int64_t size, cap; int failed; } Ints;

typedef struct OrderBuild {
    int32_t n;
    Word *reach;            /* n rows: the static order */
    int32_t *table;         /* n * n: 1 / -1 static, +-var live, 0 dead */
    int32_t *pairs;         /* the live pairs, two entries each, sorted */
    int64_t pair_count;
    int32_t *triangles;     /* (v, a, b) per elimination triangle */
    int64_t triangle_count, triangle_cap;
    int64_t literal_count, clause_count;
    /* The value axioms of cf_order_values: their literals, each clause's
     * size, and the selector records (load index, selector count, then
     * (source, selector) per selector, source -1 for the initial value). */
    Ints value_lits, value_sizes, selectors;
    int64_t clause_start, selector_count;
} OrderBuild;

static int popcount(Word w) {
#if defined(__GNUC__)
    return __builtin_popcountll(w);
#else
    int count = 0;
    for (; w; w &= w - 1) count++;
    return count;
#endif
}

static int lowest_bit(Word w) {
#if defined(__GNUC__)
    return __builtin_ctzll(w);
#else
    int bit = 0;
    while (!(w & 1)) { w >>= 1; bit++; }
    return bit;
#endif
}

static int test_bit(const Word *row, int j) {
    return (int)((row[j >> 6] >> (j & 63)) & 1);
}

static void set_bit(Word *row, int j) {
    row[j >> 6] |= (Word)1 << (j & 63);
}

static void clear_bit(Word *row, int j) {
    row[j >> 6] &= ~((Word)1 << (j & 63));
}

static int row_count(const Word *row, int words) {
    int count = 0;
    for (int w = 0; w < words; w++) count += popcount(row[w]);
    return count;
}

/* The set bits of a row in ascending order; returns how many. */
static int row_members(const Word *row, int words, int32_t *out) {
    int count = 0;
    for (int w = 0; w < words; w++)
        for (Word bits = row[w]; bits; bits &= bits - 1)
            out[count++] = (w << 6) + lowest_bit(bits);
    return count;
}

/* Little-endian bytes into words, dropping bits at positions >= n. */
static void load_row(Word *row, const uint8_t *bytes, int words, int n) {
    for (int w = 0; w < words; w++) {
        Word word = 0;
        for (int k = 7; k >= 0; k--) word = (word << 8) | bytes[8 * w + k];
        row[w] = word;
    }
    if (n & 63) row[words - 1] &= ((Word)1 << (n & 63)) - 1;
}

static void ints_push(Ints *v, int32_t x) {
    if (v->size == v->cap) {
        if (v->failed) return;
        int64_t cap = v->cap ? 2 * v->cap : 1024;
        int32_t *data = realloc(v->data, sizeof(int32_t) * (size_t)cap);
        if (!data) {
            v->failed = 1;
            return;
        }
        v->data = data;
        v->cap = cap;
    }
    v->data[v->size++] = x;
}

/* ------------------------------------------------ the (degree, vertex) heap */

typedef struct { int64_t *data; int64_t size, cap; } Heap;

static int heap_push(Heap *h, int degree, int vertex) {
    if (h->size == h->cap) {
        int64_t cap = h->cap ? 2 * h->cap : 64;
        int64_t *data = realloc(h->data, sizeof(int64_t) * (size_t)cap);
        if (!data) return 0;
        h->data = data;
        h->cap = cap;
    }
    int64_t key = ((int64_t)degree << 32) | vertex;
    int64_t i = h->size++;
    while (i > 0) {
        int64_t parent = (i - 1) / 2;
        if (h->data[parent] <= key) break;
        h->data[i] = h->data[parent];
        i = parent;
    }
    h->data[i] = key;
    return 1;
}

static int64_t heap_pop(Heap *h) {
    int64_t top = h->data[0];
    int64_t last = h->data[--h->size];
    int64_t i = 0;
    for (;;) {
        int64_t child = 2 * i + 1;
        if (child >= h->size) break;
        if (child + 1 < h->size && h->data[child + 1] < h->data[child]) child++;
        if (last <= h->data[child]) break;
        h->data[i] = h->data[child];
        i = child;
    }
    if (h->size) h->data[i] = last;
    return top;
}

/* ---------------------------------------------------- the value descriptor */

typedef struct {
    int32_t index, init, count, guard, width;
    const int32_t *bits;
} LoadRecord;

typedef struct {
    int32_t store, forwarded, addr_eq, guard, width;
    const int32_t *bits;
    int32_t negated[3];     /* the negated visibility conjuncts */
    int negated_count;
} Candidate;

/* A cursor over the descriptor.  Every read checks the bound, so an index
 * out of range or a count or width that runs past the end is bad input. */
typedef struct { const int32_t *at, *end; } Reader;

static int read_bits(Reader *r, int32_t *guard, int32_t *width,
                     const int32_t **bits) {
    if (r->end - r->at < 2) return 0;
    *guard = r->at[0];
    *width = r->at[1];
    r->at += 2;
    if (*width < 0 || r->end - r->at < *width) return 0;
    *bits = r->at;
    r->at += *width;
    return 1;
}

/* A load record; a candidate record takes at least five entries, which
 * bounds the count before anything is sized by it. */
static int read_load(Reader *r, int n, LoadRecord *load) {
    if (r->end - r->at < 3) return 0;
    load->index = r->at[0];
    load->init = r->at[1];
    load->count = r->at[2];
    r->at += 3;
    return load->index >= 0 && load->index < n
        && read_bits(r, &load->guard, &load->width, &load->bits)
        && load->count >= 0 && load->count <= (r->end - r->at) / 5;
}

static int read_candidate(Reader *r, int n, const LoadRecord *load,
                          Candidate *c) {
    if (r->end - r->at < 3) return 0;
    c->store = r->at[0];
    c->forwarded = r->at[1];
    c->addr_eq = r->at[2];
    r->at += 3;
    return c->store >= 0 && c->store < n && c->store != load->index
        && read_bits(r, &c->guard, &c->width, &c->bits);
}

/* Read one load and its candidates into ``*cands`` (grown as needed).
 * Returns ORDER_OK or an error code. */
static int read_record(Reader *r, int n, LoadRecord *load, Candidate **cands,
                       int64_t *cap) {
    if (!read_load(r, n, load)) return ORDER_BAD_INPUT;
    if (load->count > *cap) {
        Candidate *grown =
            realloc(*cands, sizeof(Candidate) * (size_t)load->count);
        if (!grown) return ORDER_NO_MEMORY;
        *cands = grown;
        *cap = load->count;
    }
    for (int32_t k = 0; k < load->count; k++)
        if (!read_candidate(r, n, load, *cands + k)) return ORDER_BAD_INPUT;
    return ORDER_OK;
}

/* ------------------------------------------------------------- the build */

void cf_order_free(OrderBuild *b) {
    if (!b) return;
    free(b->reach);
    free(b->table);
    free(b->pairs);
    free(b->triangles);
    free(b->value_lits.data);
    free(b->value_sizes.data);
    free(b->selectors.data);
    free(b);
}

static int push_triangle(OrderBuild *b, int v, int a, int c) {
    if (b->triangle_count == b->triangle_cap) {
        int64_t cap = b->triangle_cap ? 2 * b->triangle_cap : 256;
        int32_t *data = realloc(b->triangles, sizeof(int32_t) * 3 * (size_t)cap);
        if (!data) return 0;
        b->triangles = data;
        b->triangle_cap = cap;
    }
    int32_t *t = b->triangles + 3 * b->triangle_count++;
    t[0] = v;
    t[1] = a;
    t[2] = c;
    return 1;
}

/* Min-degree elimination over the support graph ``adj`` (destroyed); the
 * fill pairs join ``live``.  Returns 0 when out of memory. */
static int triangulate(OrderBuild *b, Word *adj, Word *live,
                       const Word *allowed, int words) {
    int n = b->n;
    int ok = 0;
    Heap heap = {0};
    Word *alive = calloc((size_t)words + 1, sizeof(Word));
    int32_t *neighbors = malloc(sizeof(int32_t) * ((size_t)n + 1));
    if (!alive || !neighbors) goto done;
    memcpy(alive, allowed, sizeof(Word) * (size_t)words);
    int remaining = row_count(allowed, words);
    for (int v = 0; v < n; v++)
        if (test_bit(allowed, v)
            && !heap_push(&heap, row_count(adj + (size_t)v * words, words), v))
            goto done;
    while (remaining > 0 && heap.size > 0) {
        int64_t key = heap_pop(&heap);
        int degree = (int)(key >> 32);
        int v = (int)(key & 0xffffffff);
        if (!test_bit(alive, v)) continue;
        Word *row = adj + (size_t)v * words;
        int current = row_count(row, words);
        if (current != degree) {
            if (!heap_push(&heap, current, v)) goto done;
            continue;
        }
        clear_bit(alive, v);
        remaining--;
        int count = row_members(row, words, neighbors);
        for (int x = 0; x < count; x++) {
            int a = neighbors[x];
            Word *a_row = adj + (size_t)a * words;
            clear_bit(a_row, v);
            for (int y = x + 1; y < count; y++) {
                int c = neighbors[y];
                if (!push_triangle(b, v, a, c)) goto done;
                if (!test_bit(a_row, c)) {
                    /* A fill pair: a < c by the ascending walk. */
                    set_bit(a_row, c);
                    set_bit(adj + (size_t)c * words, a);
                    set_bit(live + (size_t)a * words, c);
                }
            }
        }
        memset(row, 0, sizeof(Word) * (size_t)words);
        for (int x = 0; x < count; x++) {
            int a = neighbors[x];
            if (!heap_push(&heap, row_count(adj + (size_t)a * words, words), a))
                goto done;
        }
    }
    ok = 1;
done:
    free(heap.data);
    free(alive);
    free(neighbors);
    return ok;
}

/* Number the live pairs from ``first_var`` on and fill the literal table
 * (static entries included).  Returns ORDER_OK or an error code. */
static int number_pairs(OrderBuild *b, const Word *live, int words,
                        int32_t first_var) {
    int n = b->n;
    int64_t count = 0;
    for (int i = 0; i < n; i++) count += row_count(live + (size_t)i * words, words);
    if (first_var < 1 || count > (int64_t)INT32_MAX - first_var + 1)
        return ORDER_BAD_INPUT;
    b->table = calloc((size_t)n * (size_t)n + 1, sizeof(int32_t));
    b->pairs = malloc(sizeof(int32_t) * (2 * (size_t)count + 1));
    int32_t *members = malloc(sizeof(int32_t) * ((size_t)n + 1));
    if (!b->table || !b->pairs || !members) {
        free(members);
        return ORDER_NO_MEMORY;
    }
    for (int i = 0; i < n; i++) {
        int k = row_members(b->reach + (size_t)i * words, words, members);
        for (int x = 0; x < k; x++) {
            b->table[(size_t)i * n + members[x]] = 1;
            b->table[(size_t)members[x] * n + i] = -1;
        }
    }
    for (int i = 0; i < n; i++) {
        int k = row_members(live + (size_t)i * words, words, members);
        for (int x = 0; x < k; x++) {
            int j = members[x];
            int32_t var = (int32_t)(first_var + b->pair_count);
            b->pairs[2 * b->pair_count] = i;
            b->pairs[2 * b->pair_count + 1] = j;
            b->pair_count++;
            b->table[(size_t)i * n + j] = var;
            b->table[(size_t)j * n + i] = -var;
        }
    }
    free(members);
    return ORDER_OK;
}

/* The clauses of one triangle, as the reference build_order writes them:
 * the cycle v -> a -> c -> v, then v -> c -> a -> v, each dropped when a
 * static edge breaks it and without its statically true literals.  With
 * ``lits`` NULL only the sizes are counted; otherwise each clause's end,
 * ``base`` plus the literals written so far, goes to ``ends``. */
static void triangle_clauses(const OrderBuild *b, const int32_t *t,
                             int32_t *lits, int64_t *ends, int64_t base,
                             int64_t *literal_count, int64_t *clause_count) {
    int64_t n = b->n;
    int32_t e1 = b->table[t[0] * n + t[1]];  /* v <M a */
    int32_t e2 = b->table[t[1] * n + t[2]];  /* a <M c */
    int32_t e3 = b->table[t[0] * n + t[2]];  /* v <M c */
    int32_t clause[2][3];
    int size[2] = {0, 0};
    if (!(e1 == -1 || e2 == -1 || e3 == 1)) {
        if (e1 != 1) clause[0][size[0]++] = -e1;
        if (e2 != 1) clause[0][size[0]++] = -e2;
        if (e3 != -1) clause[0][size[0]++] = e3;
    } else {
        size[0] = -1;
    }
    if (!(e3 == -1 || e2 == 1 || e1 == 1)) {
        if (e3 != 1) clause[1][size[1]++] = -e3;
        if (e2 != -1) clause[1][size[1]++] = e2;
        if (e1 != -1) clause[1][size[1]++] = e1;
    } else {
        size[1] = -1;
    }
    for (int k = 0; k < 2; k++) {
        if (size[k] < 0) continue;
        if (lits) {
            for (int x = 0; x < size[k]; x++)
                lits[*literal_count + x] = clause[k][x];
            ends[*clause_count] = base + *literal_count + size[k];
        }
        *literal_count += size[k];
        *clause_count += 1;
    }
}

/* Seed the pair (i, j) in either order unless a static edge orders it.
 * Returns 0 for i == j, which no axiom names. */
static int seed_pair(OrderBuild *b, Word *adj, Word *live, const Word *allowed,
                     int words, int32_t i, int32_t j) {
    if (i == j) return 0;
    if (i > j) {
        int32_t swap = i;
        i = j;
        j = swap;
    }
    if (test_bit(b->reach + (size_t)i * words, j)
        || test_bit(b->reach + (size_t)j * words, i))
        return 1;
    set_bit(live + (size_t)i * words, j);
    if (test_bit(allowed, i) && test_bit(allowed, j)) {
        set_bit(adj + (size_t)i * words, j);
        set_bit(adj + (size_t)j * words, i);
    }
    return 1;
}

/* The value axioms' seeds: every candidate with its load unless the store
 * is forwarded to the load, and every two candidates of one load.  A load
 * whose guard is FALSE seeds its pairs too.  Returns ORDER_OK or an error
 * code. */
static int seed_values(OrderBuild *b, Word *adj, Word *live,
                       const Word *allowed, int words, const int32_t *desc,
                       int64_t desc_len) {
    Reader r = {desc, desc + desc_len};
    Candidate *cands = NULL;
    int64_t cap = 0;
    int status = ORDER_OK;
    while (status == ORDER_OK && r.at < r.end) {
        LoadRecord load;
        status = read_record(&r, b->n, &load, &cands, &cap);
        for (int32_t k = 0; status == ORDER_OK && k < load.count; k++) {
            if (!cands[k].forwarded
                && !seed_pair(b, adj, live, allowed, words, cands[k].store,
                              load.index))
                status = ORDER_BAD_INPUT;
            for (int32_t m = k + 1; status == ORDER_OK && m < load.count; m++)
                if (!seed_pair(b, adj, live, allowed, words, cands[k].store,
                               cands[m].store))
                    status = ORDER_BAD_INPUT;
        }
    }
    free(cands);
    return status;
}

/* Build the live pairs and transitivity clauses of one layer.
 *
 * ``reach`` holds ``n`` rows of ``(n + 63) / 64`` little-endian 64-bit
 * words, row i the accesses statically after access i (transitively
 * closed and acyclic); ``allowed`` is one such row, the support graph's
 * vertices; ``seeds`` holds ``seed_count`` pairs (i, j), 0 <= i < j < n,
 * none statically ordered; ``desc`` is the value descriptor, whose pairs
 * join the seeds.  On success returns the build and writes ``sizes`` =
 * {ORDER_OK, pair count, literal count, clause count}; read it out with
 * cf_order_copy, write the value axioms with cf_order_values and release
 * it with cf_order_free.  On failure returns NULL with sizes[0] =
 * ORDER_NO_MEMORY or ORDER_BAD_INPUT. */
OrderBuild *cf_order_build(int32_t n, const uint8_t *reach,
                           const uint8_t *allowed_bytes, const int32_t *seeds,
                           int64_t seed_count, const int32_t *desc,
                           int64_t desc_len, int32_t first_var,
                           int64_t *sizes) {
    sizes[0] = ORDER_NO_MEMORY;
    sizes[1] = sizes[2] = sizes[3] = 0;
    if (n < 0 || seed_count < 0 || desc_len < 0) {
        sizes[0] = ORDER_BAD_INPUT;
        return NULL;
    }
    int words = (n + 63) / 64;
    size_t row_words = (size_t)n * (size_t)words + 1;
    OrderBuild *b = calloc(1, sizeof(OrderBuild));
    Word *adj = calloc(row_words, sizeof(Word));
    Word *live = calloc(row_words, sizeof(Word));
    Word *allowed = calloc((size_t)words + 1, sizeof(Word));
    int status = ORDER_NO_MEMORY;
    if (!b || !adj || !live || !allowed) goto fail;
    b->n = n;
    b->reach = calloc(row_words, sizeof(Word));
    if (!b->reach) goto fail;
    for (int i = 0; i < n; i++)
        load_row(b->reach + (size_t)i * words, reach + (size_t)8 * words * i,
                 words, n);
    if (words) load_row(allowed, allowed_bytes, words, n);

    status = ORDER_BAD_INPUT;
    for (int64_t s = 0; s < seed_count; s++) {
        int32_t i = seeds[2 * s], j = seeds[2 * s + 1];
        if (i < 0 || i >= j || j >= n) goto fail;
        if (test_bit(b->reach + (size_t)i * words, j)
            || test_bit(b->reach + (size_t)j * words, i))
            goto fail;
        seed_pair(b, adj, live, allowed, words, i, j);
    }
    status = seed_values(b, adj, live, allowed, words, desc, desc_len);
    if (status != ORDER_OK) goto fail;
    for (int i = 0; i < n; i++) {
        if (!test_bit(allowed, i)) continue;
        Word *row = adj + (size_t)i * words;
        const Word *order_row = b->reach + (size_t)i * words;
        for (int w = 0; w < words; w++) {
            Word bits = order_row[w] & allowed[w];
            row[w] |= bits;
            for (; bits; bits &= bits - 1)
                set_bit(adj + (size_t)((w << 6) + lowest_bit(bits)) * words, i);
        }
    }

    status = ORDER_NO_MEMORY;
    if (!triangulate(b, adj, live, allowed, words)) goto fail;
    status = number_pairs(b, live, words, first_var);
    if (status != ORDER_OK) goto fail;
    for (int64_t t = 0; t < b->triangle_count; t++)
        triangle_clauses(b, b->triangles + 3 * t, NULL, NULL, 0,
                         &b->literal_count, &b->clause_count);
    free(adj);
    free(live);
    free(allowed);
    sizes[0] = ORDER_OK;
    sizes[1] = b->pair_count;
    sizes[2] = b->literal_count;
    sizes[3] = b->clause_count;
    return b;

fail:
    free(adj);
    free(live);
    free(allowed);
    cf_order_free(b);
    sizes[0] = status;
    return NULL;
}

/* Copy the order out: ``pairs`` gets 2 * pair count entries, ``lits`` the
 * transitivity clauses' literals back to back and ``ends`` each clause's
 * end, counted from ``literal_base``, in the sizes cf_order_build
 * reported. */
void cf_order_copy(const OrderBuild *b, int32_t *pairs, int32_t *lits,
                   int64_t *ends, int64_t literal_base) {
    if (b->pair_count)
        memcpy(pairs, b->pairs, sizeof(int32_t) * 2 * (size_t)b->pair_count);
    int64_t literal_count = 0, clause_count = 0;
    for (int64_t t = 0; t < b->triangle_count; t++)
        triangle_clauses(b, b->triangles + 3 * t, lits, ends, literal_base,
                         &literal_count, &clause_count);
}

/* ------------------------------------------------------- the value axioms */

/* Normalize a candidate's visibility conjuncts (its guard, the address
 * equality and "store before load"): constants fold and duplicates merge,
 * and the negated survivors go to ``c->negated``.  Returns 0 when the
 * candidate is never visible: a conjunct is FALSE, or two are
 * complementary. */
static int visibility(Candidate *c, int32_t before) {
    int32_t conjuncts[3] = {c->guard, c->addr_eq, before};
    c->negated_count = 0;
    for (int k = 0; k < 3; k++) {
        int32_t lit = conjuncts[k];
        if (lit == 1) continue;
        if (lit == -1) return 0;
        int duplicate = 0;
        for (int x = 0; x < c->negated_count; x++) {
            if (c->negated[x] == lit) return 0;
            if (c->negated[x] == -lit) duplicate = 1;
        }
        if (!duplicate) c->negated[c->negated_count++] = -lit;
    }
    return 1;
}

/* Bit k of a value, FALSE past its width. */
static int32_t value_bit(const int32_t *bits, int32_t width, int32_t k) {
    return k < width ? bits[k] : -1;
}

/* Can the load's value and the candidate's be equal?  Not when some bit
 * of one is the negation of the same bit of the other. */
static int values_can_match(const LoadRecord *load, const Candidate *c) {
    int32_t width = load->width > c->width ? load->width : c->width;
    for (int32_t k = 0; k < width; k++) {
        int32_t a = value_bit(load->bits, load->width, k);
        int32_t s = value_bit(c->bits, c->width, k);
        if (a != s && a == -s) return 0;
    }
    return 1;
}

static void end_clause(OrderBuild *b) {
    int64_t size = b->value_lits.size - b->clause_start;
    ints_push(&b->value_sizes, (int32_t)size);
    b->clause_start = b->value_lits.size;
}

/* ``rf -> (load value == candidate value)``, one clause per differing
 * bit, or two when neither bit is a constant. */
static void value_equality(OrderBuild *b, const LoadRecord *load,
                           const Candidate *c, int32_t rf) {
    Ints *lits = &b->value_lits;
    int32_t width = load->width > c->width ? load->width : c->width;
    for (int32_t k = 0; k < width; k++) {
        int32_t a = value_bit(load->bits, load->width, k);
        int32_t s = value_bit(c->bits, c->width, k);
        if (a == s) continue;
        ints_push(lits, -rf);
        if (a == 1 || a == -1) {
            ints_push(lits, a > 0 ? s : -s);
        } else if (s == 1 || s == -1) {
            ints_push(lits, s > 0 ? a : -a);
        } else {
            ints_push(lits, -a);
            ints_push(lits, s);
            end_clause(b);
            ints_push(lits, -rf);
            ints_push(lits, a);
            ints_push(lits, -s);
        }
        end_clause(b);
    }
}

/* The value axioms of one load whose guard is not FALSE, over its
 * ``count`` candidates (compacted in place to the visible ones): one
 * selector per visible candidate whose value can match, and one for the
 * initial value, numbered from ``*next``.  Returns ORDER_OK or an error
 * code. */
static int load_axioms(OrderBuild *b, const LoadRecord *load, Candidate *cands,
                       int64_t *next) {
    int64_t n = b->n;
    Ints *lits = &b->value_lits, *sel = &b->selectors;
    int visible = 0;
    int init = load->init != -1;
    for (int32_t k = 0; k < load->count; k++) {
        Candidate *c = cands + k;
        int32_t before =
            c->forwarded ? 1 : b->table[c->store * n + load->index];
        if (before == 0) return ORDER_BAD_INPUT;  /* a pair never seeded */
        if (!visibility(c, before)) continue;
        /* An always-visible candidate rules the initial value out. */
        if (c->negated_count == 0) init = 0;
        cands[visible++] = *c;
    }
    ints_push(sel, load->index);
    ints_push(sel, 0);
    /* The initial value's selector is minted last and listed first. */
    if (init) {
        ints_push(sel, -1);
        ints_push(sel, 0);
    }
    if (sel->failed) return ORDER_NO_MEMORY;
    int64_t record = sel->size - (init ? 4 : 2);

    for (int k = 0; k < visible; k++) {
        const Candidate *c = cands + k;
        if (!values_can_match(load, c)) continue;
        if (*next > INT32_MAX) return ORDER_BAD_INPUT;
        int32_t rf = (int32_t)(*next)++;
        ints_push(sel, c->store);
        ints_push(sel, rf);
        for (int x = 0; x < c->negated_count; x++) {
            ints_push(lits, -rf);
            ints_push(lits, -c->negated[x]);
            end_clause(b);
        }
        value_equality(b, load, c, rf);
        /* Maximality: every other visible candidate precedes this one. */
        for (int m = 0; m < visible; m++) {
            if (m == k) continue;
            const Candidate *other = cands + m;
            int32_t lit = b->table[other->store * n + c->store];
            if (lit == 0) return ORDER_BAD_INPUT;
            if (lit == 1) continue;
            ints_push(lits, -rf);
            for (int x = 0; x < other->negated_count; x++)
                ints_push(lits, other->negated[x]);
            if (lit != -1) ints_push(lits, lit);
            end_clause(b);
        }
    }
    if (init) {
        if (*next > INT32_MAX) return ORDER_BAD_INPUT;
        int32_t rf = (int32_t)(*next)++;
        sel->data[record + 3] = rf;
        for (int k = 0; k < visible; k++) {
            ints_push(lits, -rf);
            for (int x = 0; x < cands[k].negated_count; x++)
                ints_push(lits, cands[k].negated[x]);
            end_clause(b);
        }
        if (load->init != 1) {
            ints_push(lits, -rf);
            ints_push(lits, load->init);
            end_clause(b);
        }
    }
    if (sel->failed) return ORDER_NO_MEMORY;
    int64_t selectors = (sel->size - record - 2) / 2;
    sel->data[record + 1] = (int32_t)selectors;
    b->selector_count += selectors;
    /* An executed load reads from one of its selectors. */
    if (load->guard != 1) ints_push(lits, -load->guard);
    for (int64_t x = record + 3; x < sel->size; x += 2)
        ints_push(lits, sel->data[x]);
    end_clause(b);
    return ORDER_OK;
}

/* Write the value axioms of a build over its literal table.  ``desc`` is
 * the descriptor cf_order_build seeded from; the selectors are numbered
 * from ``first_var`` on.  On success writes ``sizes`` = {ORDER_OK, literal
 * count, clause count, selector record length, selector count}; read them
 * out with cf_order_values_copy.  Otherwise returns ORDER_NO_MEMORY or
 * ORDER_BAD_INPUT (a malformed descriptor, a pair the build did not seed,
 * or a selector past 2**31 - 1), also in sizes[0]. */
int cf_order_values(OrderBuild *b, const int32_t *desc, int64_t desc_len,
                    int32_t first_var, int64_t *sizes) {
    Ints *buffers[3] = {&b->value_lits, &b->value_sizes, &b->selectors};
    for (int k = 0; k < 3; k++) buffers[k]->size = buffers[k]->failed = 0;
    b->clause_start = b->selector_count = 0;
    sizes[1] = sizes[2] = sizes[3] = sizes[4] = 0;
    Reader r = {desc, desc + (desc_len > 0 ? desc_len : 0)};
    Candidate *cands = NULL;
    int64_t cap = 0, next = first_var;
    int status = first_var < 1 || desc_len < 0 ? ORDER_BAD_INPUT : ORDER_OK;
    while (status == ORDER_OK && r.at < r.end) {
        LoadRecord load;
        status = read_record(&r, b->n, &load, &cands, &cap);
        if (status == ORDER_OK && load.guard != -1)
            status = load_axioms(b, &load, cands, &next);
    }
    free(cands);
    for (int k = 0; k < 3; k++)
        if (status == ORDER_OK && buffers[k]->failed) status = ORDER_NO_MEMORY;
    if (status == ORDER_OK) {
        sizes[1] = b->value_lits.size;
        sizes[2] = b->value_sizes.size;
        sizes[3] = b->selectors.size;
        sizes[4] = b->selector_count;
    }
    sizes[0] = status;
    return status;
}

/* Copy the value axioms out, in the sizes cf_order_values reported:
 * ``lits`` the literals, ``ends`` each clause's end counted from
 * ``literal_base``, ``selectors`` the selector records. */
void cf_order_values_copy(const OrderBuild *b, int32_t *lits, int64_t *ends,
                          int64_t literal_base, int32_t *selectors) {
    if (b->value_lits.size)
        memcpy(lits, b->value_lits.data,
               sizeof(int32_t) * (size_t)b->value_lits.size);
    int64_t end = literal_base;
    for (int64_t k = 0; k < b->value_sizes.size; k++) {
        end += b->value_sizes.data[k];
        ends[k] = end;
    }
    if (b->selectors.size)
        memcpy(selectors, b->selectors.data,
               sizeof(int32_t) * (size_t)b->selectors.size);
}
