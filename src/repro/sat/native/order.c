/*
 * order.c -- the memory-order layer's transitivity builder, compiled into
 * the same shared library as cdcl.c (see repro.sat.native).
 *
 * One call per per-model layer of repro.encoding.memory.  Given the
 * layer's static order (transitively closed reachability rows), the
 * vertices of its support graph (the non-init accesses) and the seed
 * pairs some axiom mentions, the builder
 *
 *   - chordalizes the support graph by min-degree elimination: a lazy
 *     (degree, vertex) heap whose stale entries are re-pushed, and an
 *     ascending neighbour walk that discovers the fill pairs;
 *   - numbers the live pairs (seeds plus fill) in sorted order, from the
 *     first free variable on;
 *   - writes the two no-3-cycle clauses of every elimination triangle,
 *     with static edges folded away.
 *
 * Every step repeats repro.encoding.memory.build_order, the pure-Python
 * twin, so the two write the same pairs and the same literals in the same
 * order.  The heap pops the least (degree, vertex) entry, ties included,
 * so its pop sequence does not depend on how the heap is laid out.
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

typedef struct OrderBuild {
    int32_t n;
    Word *reach;            /* n rows: the static order */
    int32_t *table;         /* n * n: 1 / -1 static, +-var live, 0 dead */
    int32_t *pairs;         /* the live pairs, two entries each, sorted */
    int64_t pair_count;
    int32_t *triangles;     /* (v, a, b) per elimination triangle */
    int64_t triangle_count, triangle_cap;
    int64_t literal_count, clause_count;
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

/* ------------------------------------------------------------- the build */

void cf_order_free(OrderBuild *b) {
    if (!b) return;
    free(b->reach);
    free(b->table);
    free(b->pairs);
    free(b->triangles);
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

/* The clauses of one triangle, as repro.encoding.memory.build_order writes
 * them: the cycle v -> a -> c -> v, then v -> c -> a -> v, each dropped
 * when a static edge breaks it and without its statically true literals.
 * With ``lits`` NULL only the sizes are counted. */
static void triangle_clauses(const OrderBuild *b, const int32_t *t,
                             int32_t *lits, int8_t *lengths,
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
            lengths[*clause_count] = (int8_t)size[k];
        }
        *literal_count += size[k];
        *clause_count += 1;
    }
}

/* Build the live pairs and transitivity clauses of one layer.
 *
 * ``reach`` holds ``n`` rows of ``(n + 63) / 64`` little-endian 64-bit
 * words, row i the accesses statically after access i (transitively
 * closed and acyclic); ``allowed`` is one such row, the support graph's
 * vertices; ``seeds`` holds ``seed_count`` pairs (i, j), 0 <= i < j < n,
 * none statically ordered.  On success returns the build and writes
 * ``sizes`` = {ORDER_OK, pair count, literal count, clause count}; read it
 * out with cf_order_copy and release it with cf_order_free.  On failure
 * returns NULL with sizes[0] = ORDER_NO_MEMORY or ORDER_BAD_INPUT. */
OrderBuild *cf_order_build(int32_t n, const uint8_t *reach,
                           const uint8_t *allowed_bytes, const int32_t *seeds,
                           int64_t seed_count, int32_t first_var,
                           int64_t *sizes) {
    sizes[0] = ORDER_NO_MEMORY;
    sizes[1] = sizes[2] = sizes[3] = 0;
    if (n < 0 || seed_count < 0) {
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
        set_bit(live + (size_t)i * words, j);
        if (test_bit(allowed, i) && test_bit(allowed, j)) {
            set_bit(adj + (size_t)i * words, j);
            set_bit(adj + (size_t)j * words, i);
        }
    }
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
        triangle_clauses(b, b->triangles + 3 * t, NULL, NULL,
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

/* Copy a build out: ``pairs`` gets 2 * pair count entries, ``lits`` the
 * clauses' literals back to back and ``lengths`` each clause's size, in
 * the sizes cf_order_build reported. */
void cf_order_copy(const OrderBuild *b, int32_t *pairs, int32_t *lits,
                   int8_t *lengths) {
    if (b->pair_count)
        memcpy(pairs, b->pairs, sizeof(int32_t) * 2 * (size_t)b->pair_count);
    int64_t literal_count = 0, clause_count = 0;
    for (int64_t t = 0; t < b->triangle_count; t++)
        triangle_clauses(b, b->triangles + 3 * t, lits, lengths,
                         &literal_count, &clause_count);
}
