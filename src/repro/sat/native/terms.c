/*
 * terms.c -- the encoding skeleton's shared address and initial-value
 * terms, compiled into the same shared library as cdcl.c and order.c (see
 * repro.sat.native).
 *
 * One build per encoding skeleton (repro.encoding.formula's
 * SharedTermBatch).  The skeleton's gate builder (repro.sat.circuit's
 * Circuit) hands over its AND and XOR structural hashes; the build then
 * answers a list of requests, in order:
 *
 *   - an address comparison, eq(addr(i), addr(j)) of two accesses;
 *   - a load's initial-value term, the OR over the load's locations of
 *     eq_const(addr, location) & eq(value, initial value of location).
 *
 * It replays Circuit's gates step for step: AND and XOR fold constants,
 * duplicates and complementary operands, an n-ary AND stops at its first
 * FALSE or complementary operand (so the equality bits after it are never
 * built), XOR moves the operand signs to its output, and each gate is
 * looked up in its structural hash before a variable is minted for it.
 * A fresh initial value mints its bits where Python would, on its first
 * use, and asserts its domain as one unit clause.  So the variables, the
 * clauses and their order are the ones the Python gates would write.
 *
 * The descriptor is one flat int32 array: a header of six lengths, then
 * the sections they measure.
 *
 *   header     AND gate count, AND operand count, XOR gate count, access
 *              section length, initial-value section length, request
 *              section length
 *   AND hash   each gate's operand count, then every gate's sorted
 *              operands back to back, then each gate's output
 *   XOR hash   each gate's two operand variables (ascending), then each
 *              gate's output
 *   accesses   per access, by index: address width, address bits, value
 *              width, value bits
 *   initials   per initial value (a "slot"): 0, width, bits -- a known
 *              vector -- or 1, width, domain count, domain values -- a
 *              fresh vector, minted on its first use, whose value is one of
 *              the domain values when the count is not zero
 *   requests   0, i, j -- compare the addresses of accesses i and j -- or
 *              1, load, count, then (location, slot) per location
 *
 * Literals are CNF literals (1 and -1 are the constants TRUE and FALSE);
 * a bit is LSB first.  cf_terms_copy hands back the clauses with absolute
 * int64 ends, the new AND and XOR gates in creation order (laid out as in
 * the hash sections), one literal per request, and the first variable of
 * each fresh slot.  Malformed input (an index out of range, a width or a
 * count that runs past its section, a record cut short, a zero literal or
 * one past the variables so far) and a variable numbered past 2**31 - 1
 * are reported as TERMS_BAD_INPUT; every allocation is checked, and a
 * failure frees what was built and reports TERMS_NO_MEMORY.
 */

#include <stdint.h>
#include <stdlib.h>
#include <string.h>

#define TERMS_OK 0
#define TERMS_NO_MEMORY -1
#define TERMS_BAD_INPUT -2

#define TRUE_LIT 1
#define FALSE_LIT (-1)

/* A growable int32 buffer.  A failed growth sets ``failed``, and every
 * later push is dropped. */
typedef struct { int32_t *data; int64_t size, cap; int failed; } Ints;

static int ints_reserve(Ints *v, int64_t extra) {
    if (v->failed) return 0;
    if (v->size + extra <= v->cap) return 1;
    int64_t cap = v->cap ? 2 * v->cap : 256;
    while (cap < v->size + extra) cap *= 2;
    int32_t *data = realloc(v->data, sizeof(int32_t) * (size_t)cap);
    if (!data) {
        v->failed = 1;
        return 0;
    }
    v->data = data;
    v->cap = cap;
    return 1;
}

static void ints_push(Ints *v, int32_t x) {
    if (ints_reserve(v, 1)) v->data[v->size++] = x;
}

static uint64_t mix(uint64_t h) {
    h ^= h >> 33;
    h *= 0xff51afd7ed558ccdULL;
    h ^= h >> 33;
    return h;
}

static uint64_t hash_operands(const int32_t *ops, int32_t len) {
    uint64_t h = (uint64_t)len;
    for (int32_t k = 0; k < len; k++) h = mix(h ^ (uint32_t)ops[k]);
    return h;
}

/* ------------------------------------------------------ structural hashes */

/* One structural hash: each gate as (operand count, sorted operands,
 * output) in ``pool``, found by open addressing over ``slots`` (a gate's
 * pool offset plus one; 0 is empty).  The gates from pool offset
 * ``first_new`` and number ``loaded`` on were built by this build. */
typedef struct {
    Ints pool;
    int64_t *slots;
    int64_t cap, count, first_new, loaded;
} Gates;

static int gates_grow(Gates *g) {
    int64_t cap = g->cap ? 2 * g->cap : 1024;
    int64_t *slots = calloc((size_t)cap, sizeof(int64_t));
    if (!slots) return 0;
    for (int64_t at = 0; at < g->pool.size; at += g->pool.data[at] + 2) {
        const int32_t *gate = g->pool.data + at;
        int64_t h = (int64_t)(hash_operands(gate + 1, gate[0]) & (uint64_t)(cap - 1));
        while (slots[h]) h = (h + 1) & (cap - 1);
        slots[h] = at + 1;
    }
    free(g->slots);
    g->slots = slots;
    g->cap = cap;
    return 1;
}

static int32_t gates_find(const Gates *g, const int32_t *ops, int32_t len) {
    if (!g->cap) return 0;
    int64_t h = (int64_t)(hash_operands(ops, len) & (uint64_t)(g->cap - 1));
    for (; g->slots[h]; h = (h + 1) & (g->cap - 1)) {
        const int32_t *gate = g->pool.data + g->slots[h] - 1;
        if (gate[0] == len
            && !memcmp(gate + 1, ops, sizeof(int32_t) * (size_t)len))
            return gate[len + 1];
    }
    return 0;
}

static int gates_add(Gates *g, const int32_t *ops, int32_t len, int32_t out) {
    if (2 * (g->count + 1) > g->cap && !gates_grow(g)) return 0;
    if (!ints_reserve(&g->pool, (int64_t)len + 2)) return 0;
    int64_t at = g->pool.size;
    int32_t *gate = g->pool.data + at;
    gate[0] = len;
    memcpy(gate + 1, ops, sizeof(int32_t) * (size_t)len);
    gate[len + 1] = out;
    g->pool.size += (int64_t)len + 2;
    int64_t h = (int64_t)(hash_operands(ops, len) & (uint64_t)(g->cap - 1));
    while (g->slots[h]) h = (h + 1) & (g->cap - 1);
    g->slots[h] = at + 1;
    g->count++;
    return 1;
}

/* ------------------------------------------------- a conjunction, lazily */

/* The state of Circuit.and_many while it consumes its operands: the kept
 * children and the set of them (open addressing; a slot is taken when its
 * stamp is the current epoch).  ``done`` is set when an operand decided
 * the conjunction FALSE: the caller builds no further operand. */
typedef struct {
    Ints children;
    int32_t *keys;
    uint32_t *stamps;
    int64_t cap;
    uint32_t epoch;
    int done;
} Conj;

static int64_t conj_slot(const Conj *c, int32_t lit) {
    int64_t h = (int64_t)(mix((uint32_t)lit) & (uint64_t)(c->cap - 1));
    while (c->stamps[h] == c->epoch && c->keys[h] != lit)
        h = (h + 1) & (c->cap - 1);
    return h;
}

static int conj_has(const Conj *c, int32_t lit) {
    return c->cap && c->stamps[conj_slot(c, lit)] == c->epoch;
}

static void conj_begin(Conj *c) {
    c->children.size = 0;
    c->done = 0;
    if (++c->epoch == 0) {
        if (c->stamps) memset(c->stamps, 0, sizeof(uint32_t) * (size_t)c->cap);
        c->epoch = 1;
    }
}

/* Add a child not in the set yet; 0 when out of memory. */
static int conj_add(Conj *c, int32_t lit) {
    if (2 * (c->children.size + 1) > c->cap) {
        int64_t cap = c->cap ? 2 * c->cap : 64;
        int32_t *keys = malloc(sizeof(int32_t) * (size_t)cap);
        uint32_t *stamps = calloc((size_t)cap, sizeof(uint32_t));
        if (!keys || !stamps) {
            free(keys);
            free(stamps);
            return 0;
        }
        free(c->keys);
        free(c->stamps);
        c->keys = keys;
        c->stamps = stamps;
        c->cap = cap;
        c->epoch = 1;
        for (int64_t k = 0; k < c->children.size; k++) {
            int64_t h = conj_slot(c, c->children.data[k]);
            c->keys[h] = c->children.data[k];
            c->stamps[h] = c->epoch;
        }
    }
    ints_push(&c->children, lit);
    if (c->children.failed) return 0;
    int64_t h = conj_slot(c, lit);
    c->keys[h] = lit;
    c->stamps[h] = c->epoch;
    return 1;
}

/* ------------------------------------------------------------- the build */

typedef struct {
    const int32_t *addr, *value;
    int32_t addr_width, value_width;
} Access;

typedef struct {
    int32_t fresh, width, count;
    const int32_t *data;    /* the known bits, or the domain values */
    int64_t bits;           /* a minted vector's offset in fresh_bits, or -1 */
    int64_t fresh_index;    /* a fresh slot's place among the fresh slots */
} Initial;

typedef struct TermsBuild {
    int status;
    int64_t next_var, limit;            /* limit: the first variable not given */
    Gates ands, xors;
    Ints lits, clause_sizes;            /* the clauses and each one's size */
    Ints results, minted, fresh_bits, consts, terms;
    Conj inner, outer;                  /* an equality; a domain or a term OR */
    Access *accesses;
    int64_t access_count;
    Initial *initials;
    int64_t initial_count, fresh_count;
} TermsBuild;

static void conj_free(Conj *c) {
    free(c->children.data);
    free(c->keys);
    free(c->stamps);
}

void cf_terms_free(TermsBuild *b) {
    if (!b) return;
    free(b->ands.pool.data);
    free(b->ands.slots);
    free(b->xors.pool.data);
    free(b->xors.slots);
    Ints *buffers[7] = {&b->lits, &b->clause_sizes, &b->results, &b->minted,
                        &b->fresh_bits, &b->consts, &b->terms};
    for (int k = 0; k < 7; k++) free(buffers[k]->data);
    conj_free(&b->inner);
    conj_free(&b->outer);
    free(b->accesses);
    free(b->initials);
    free(b);
}

static int32_t fail(TermsBuild *b, int status) {
    if (b->status == TERMS_OK) b->status = status;
    return 0;
}

static int32_t mint(TermsBuild *b) {
    if (b->next_var > INT32_MAX) return fail(b, TERMS_BAD_INPUT);
    return (int32_t)b->next_var++;
}

static void end_clause(TermsBuild *b, int64_t start) {
    ints_push(&b->clause_sizes, (int32_t)(b->lits.size - start));
}

/* Circuit._gate: the output of AND(ops), ops sorted, distinct, not
 * constant and pairwise not complementary. */
static int32_t and_gate(TermsBuild *b, const int32_t *ops, int32_t len) {
    int32_t out = gates_find(&b->ands, ops, len);
    if (out) return out;
    out = mint(b);
    if (!out) return 0;
    Ints *lits = &b->lits;
    for (int32_t k = 0; k < len; k++) {
        int64_t start = lits->size;
        ints_push(lits, -out);
        ints_push(lits, ops[k]);
        end_clause(b, start);
    }
    int64_t start = lits->size;
    ints_push(lits, out);
    for (int32_t k = 0; k < len; k++) ints_push(lits, -ops[k]);
    end_clause(b, start);
    if (!gates_add(&b->ands, ops, len, out)) return fail(b, TERMS_NO_MEMORY);
    return out;
}

/* Circuit.and_many, one operand at a time: returns 0 once the
 * conjunction is decided (or on an error), 1 to go on. */
static int conj_push(TermsBuild *b, Conj *c, int32_t a) {
    if (b->status != TERMS_OK || c->done) return 0;
    if (a == FALSE_LIT || conj_has(c, -a)) {
        c->done = 1;
        return 0;
    }
    if (a == TRUE_LIT || conj_has(c, a)) return 1;
    if (!conj_add(c, a)) return fail(b, TERMS_NO_MEMORY);
    return 1;
}

static int compare_literals(const void *x, const void *y) {
    int32_t a = *(const int32_t *)x, c = *(const int32_t *)y;
    return (a > c) - (a < c);
}

static int32_t conj_end(TermsBuild *b, Conj *c) {
    if (b->status != TERMS_OK) return 0;
    if (c->done) return FALSE_LIT;
    int64_t n = c->children.size;
    if (n == 0) return TRUE_LIT;
    if (n == 1) return c->children.data[0];
    qsort(c->children.data, (size_t)n, sizeof(int32_t), compare_literals);
    return and_gate(b, c->children.data, (int32_t)n);
}

/* Circuit.and_ on two built operands. */
static int32_t and2(TermsBuild *b, int32_t x, int32_t y) {
    if (b->status != TERMS_OK) return 0;
    if (x == FALSE_LIT || y == FALSE_LIT || x == -y) return FALSE_LIT;
    if (x == TRUE_LIT || x == y) return y;
    if (y == TRUE_LIT) return x;
    int32_t ops[2] = {x < y ? x : y, x < y ? y : x};
    return and_gate(b, ops, 2);
}

/* Circuit.xor. */
static int32_t xor_gate(TermsBuild *b, int32_t x, int32_t y) {
    if (x == TRUE_LIT) return -y;
    if (x == FALSE_LIT) return y;
    if (y == TRUE_LIT) return -x;
    if (y == FALSE_LIT) return x;
    if (x == y) return FALSE_LIT;
    if (x == -y) return TRUE_LIT;
    int negate = (x < 0) != (y < 0);
    if (x < 0) x = -x;
    if (y < 0) y = -y;
    int32_t ops[2] = {x < y ? x : y, x < y ? y : x};
    int32_t out = gates_find(&b->xors, ops, 2);
    if (!out) {
        out = mint(b);
        if (!out) return 0;
        int32_t p = ops[0], q = ops[1];
        int32_t clauses[12] = {-out, p, q, -out, -p, -q,
                               out, -p, q, out, p, -q};
        if (ints_reserve(&b->lits, 12)) {
            for (int k = 0; k < 12; k += 3) {
                int64_t start = b->lits.size;
                memcpy(b->lits.data + start, clauses + k, sizeof(int32_t) * 3);
                b->lits.size += 3;
                end_clause(b, start);
            }
        }
        if (!gates_add(&b->xors, ops, 2, out)) return fail(b, TERMS_NO_MEMORY);
    }
    return negate ? -out : out;
}

/* BitVecBuilder.eq: the shorter vector is zero-extended, and the AND of
 * the bitwise IFFs stops at its first FALSE or complementary bit. */
static int32_t eq_bits(TermsBuild *b, const int32_t *x, int32_t x_width,
                       const int32_t *y, int32_t y_width) {
    Conj *c = &b->inner;
    conj_begin(c);
    int32_t width = x_width > y_width ? x_width : y_width;
    for (int32_t k = 0; k < width; k++) {
        int32_t iff = -xor_gate(b, k < x_width ? x[k] : FALSE_LIT,
                                k < y_width ? y[k] : FALSE_LIT);
        if (b->status != TERMS_OK || !conj_push(b, c, iff)) break;
    }
    return conj_end(b, c);
}

/* Does ``value`` fit ``width`` bits (BitVecBuilder.const's check)? */
static int fits(int64_t value, int32_t width) {
    return value >= 0 && (width == 0 || width >= 31 || value >> width == 0);
}

/* BitVecBuilder.eq_const: ``value`` fits ``width``. */
static int32_t eq_const(TermsBuild *b, const int32_t *bits, int32_t width,
                        int32_t value) {
    Ints *consts = &b->consts;
    consts->size = 0;
    if (!ints_reserve(consts, width)) return fail(b, TERMS_NO_MEMORY);
    for (int32_t k = 0; k < width; k++)
        consts->data[k] = k < 31 && (value >> k) & 1 ? TRUE_LIT : FALSE_LIT;
    consts->size = width;
    return eq_bits(b, bits, width, consts->data, width);
}

/* The bits of an initial value, minting a fresh one on its first use and
 * asserting its domain as EncodingContext.initial_value does: the OR of
 * "equals v" over the domain values, built lazily like the AND. */
static const int32_t *initial_bits(TermsBuild *b, Initial *v) {
    if (!v->fresh) return v->data;
    if (v->bits < 0) {
        if (!ints_reserve(&b->fresh_bits, v->width)) {
            fail(b, TERMS_NO_MEMORY);
            return NULL;
        }
        int64_t at = b->fresh_bits.size;
        for (int32_t k = 0; k < v->width; k++) {
            int32_t var = mint(b);
            if (!var) return NULL;
            b->fresh_bits.data[b->fresh_bits.size++] = var;
        }
        v->bits = at;
        if (v->width) b->minted.data[v->fresh_index] = b->fresh_bits.data[at];
        const int32_t *bits = b->fresh_bits.data + at;
        if (v->count > 0) {
            Conj *c = &b->outer;
            conj_begin(c);
            for (int32_t k = 0; k < v->count; k++) {
                int32_t eq = eq_const(b, bits, v->width, v->data[k]);
                if (b->status != TERMS_OK || !conj_push(b, c, -eq)) break;
            }
            int32_t any = -conj_end(b, c);
            if (b->status != TERMS_OK) return NULL;
            int64_t start = b->lits.size;
            ints_push(&b->lits, any);
            end_clause(b, start);
        }
    }
    return b->fresh_bits.data + v->bits;
}

/* ---------------------------------------------------------- the sections */

/* A cursor over one section.  Every read checks the bound, so an index
 * out of range or a count or width that runs past the end is bad input. */
typedef struct { const int32_t *at, *end; } Reader;

static int take(Reader *r, int32_t *x) {
    if (r->at >= r->end) return 0;
    *x = *r->at++;
    return 1;
}

/* ``count`` entries from the cursor, in place. */
static int take_run(Reader *r, int32_t count, const int32_t **run) {
    if (count < 0 || r->end - r->at < count) return 0;
    *run = r->at;
    r->at += count;
    return 1;
}

/* A literal of a variable the CNF already has. */
static int valid_literal(const TermsBuild *b, int32_t lit) {
    return lit != 0 && lit != INT32_MIN
        && (lit < 0 ? -(int64_t)lit : lit) < b->limit;
}

static int take_bits(TermsBuild *b, Reader *r, int32_t *width,
                     const int32_t **bits) {
    if (!take(r, width) || !take_run(r, *width, bits)) return 0;
    for (int32_t k = 0; k < *width; k++)
        if (!valid_literal(b, (*bits)[k])) return 0;
    return 1;
}

/* Load the hash sections into the build's tables. */
static int read_hashes(TermsBuild *b, const int32_t *header, Reader *r) {
    int64_t and_count = header[0], and_operands = header[1];
    int64_t xor_count = header[2];
    if (and_count < 0 || and_operands < 0 || xor_count < 0
        || r->end - r->at < 2 * and_count + and_operands + 3 * xor_count)
        return TERMS_BAD_INPUT;
    const int32_t *lens = r->at, *ops = lens + and_count;
    const int32_t *outs = ops + and_operands;
    int64_t used = 0;
    for (int64_t g = 0; g < and_count; g++) {
        if (lens[g] < 0 || and_operands - used < lens[g]) return TERMS_BAD_INPUT;
        if (!gates_add(&b->ands, ops + used, lens[g], outs[g]))
            return TERMS_NO_MEMORY;
        used += lens[g];
    }
    if (used != and_operands) return TERMS_BAD_INPUT;
    const int32_t *xor_ops = outs + and_count, *xor_outs = xor_ops + 2 * xor_count;
    for (int64_t g = 0; g < xor_count; g++)
        if (!gates_add(&b->xors, xor_ops + 2 * g, 2, xor_outs[g]))
            return TERMS_NO_MEMORY;
    r->at = xor_outs + xor_count;
    b->ands.first_new = b->ands.pool.size;
    b->ands.loaded = b->ands.count;
    b->xors.first_new = b->xors.pool.size;
    b->xors.loaded = b->xors.count;
    return TERMS_OK;
}

/* The access records of a section: counted and checked on a first pass
 * (``out`` NULL), stored on the second. */
static int64_t read_accesses(TermsBuild *b, Reader r, Access *out) {
    int64_t count = 0;
    while (r.at < r.end) {
        Access a;
        if (!take_bits(b, &r, &a.addr_width, &a.addr)
            || !take_bits(b, &r, &a.value_width, &a.value))
            return -1;
        if (out) out[count] = a;
        count++;
    }
    return count;
}

/* The initial-value records of a section, as read_accesses reads. */
static int64_t read_initials(TermsBuild *b, Reader r, Initial *out) {
    int64_t count = 0, fresh = 0;
    while (r.at < r.end) {
        Initial v = {0, 0, 0, NULL, -1, -1};
        if (!take(&r, &v.fresh) || (v.fresh != 0 && v.fresh != 1))
            return -1;
        if (!v.fresh) {
            if (!take_bits(b, &r, &v.width, &v.data)) return -1;
        } else {
            if (!take(&r, &v.width) || v.width < 0 || !take(&r, &v.count)
                || !take_run(&r, v.count, &v.data))
                return -1;
            for (int32_t k = 0; k < v.count; k++)
                if (!fits(v.data[k], v.width)) return -1;
            v.fresh_index = fresh++;
        }
        if (out) out[count] = v;
        count++;
    }
    return count;
}

static int read_sections(TermsBuild *b, Reader accesses, Reader initials) {
    b->access_count = read_accesses(b, accesses, NULL);
    b->initial_count = read_initials(b, initials, NULL);
    if (b->access_count < 0 || b->initial_count < 0) return TERMS_BAD_INPUT;
    b->accesses = malloc(sizeof(Access) * (size_t)(b->access_count + 1));
    b->initials = malloc(sizeof(Initial) * (size_t)(b->initial_count + 1));
    if (!b->accesses || !b->initials) return TERMS_NO_MEMORY;
    read_accesses(b, accesses, b->accesses);
    read_initials(b, initials, b->initials);
    for (int64_t k = 0; k < b->initial_count; k++)
        if (b->initials[k].fresh) {
            b->fresh_count++;
            ints_push(&b->minted, 0);
        }
    return b->minted.failed ? TERMS_NO_MEMORY : TERMS_OK;
}

static int32_t take_index(Reader *r, int64_t count) {
    int32_t x;
    if (!take(r, &x) || x < 0 || x >= count) return -1;
    return x;
}

/* One initial-value term request, after its tag. */
static int32_t initial_term(TermsBuild *b, Reader *r) {
    int32_t load = take_index(r, b->access_count), count;
    if (load < 0 || !take(r, &count) || count < 0 || r->end - r->at < 2 * (int64_t)count)
        return fail(b, TERMS_BAD_INPUT);
    const Access *a = b->accesses + load;
    Ints *terms = &b->terms;
    terms->size = 0;
    for (int32_t k = 0; k < count; k++) {
        int32_t location = r->at[0];
        Initial *v = r->at[1] >= 0 && r->at[1] < b->initial_count
            ? b->initials + r->at[1] : NULL;
        r->at += 2;
        if (!v || !fits(location, a->addr_width)) return fail(b, TERMS_BAD_INPUT);
        int32_t at_location = eq_const(b, a->addr, a->addr_width, location);
        const int32_t *bits = initial_bits(b, v);
        if (b->status != TERMS_OK) return 0;
        int32_t same_value = eq_bits(b, a->value, a->value_width, bits, v->width);
        ints_push(terms, and2(b, at_location, same_value));
        if (terms->failed) return fail(b, TERMS_NO_MEMORY);
        if (b->status != TERMS_OK) return 0;
    }
    Conj *c = &b->outer;
    conj_begin(c);
    for (int64_t k = 0; k < terms->size; k++)
        if (!conj_push(b, c, -terms->data[k])) break;
    return -conj_end(b, c);
}

static void run_requests(TermsBuild *b, Reader r) {
    while (b->status == TERMS_OK && r.at < r.end) {
        int32_t tag = *r.at++, lit = 0;
        if (tag == 0) {
            int32_t i = take_index(&r, b->access_count);
            int32_t j = take_index(&r, b->access_count);
            if (i < 0 || j < 0) {
                fail(b, TERMS_BAD_INPUT);
                return;
            }
            const Access *x = b->accesses + i, *y = b->accesses + j;
            lit = eq_bits(b, x->addr, x->addr_width, y->addr, y->addr_width);
        } else if (tag == 1) {
            lit = initial_term(b, &r);
        } else {
            fail(b, TERMS_BAD_INPUT);
            return;
        }
        if (b->status == TERMS_OK) ints_push(&b->results, lit);
    }
}

/* Build every request of a descriptor (laid out as the header comment
 * says), numbering new variables from ``first_var`` on.  On success
 * returns the build and writes ``sizes`` = {TERMS_OK, next free variable,
 * literal count, clause count, new AND gate count, their operand count,
 * new XOR gate count, result count, fresh slot count}; read them out with
 * cf_terms_copy and free the build with cf_terms_free.  Otherwise returns
 * NULL with TERMS_NO_MEMORY or TERMS_BAD_INPUT in sizes[0]. */
TermsBuild *cf_terms_build(const int32_t *desc, int64_t desc_len,
                           int32_t first_var, int64_t *sizes) {
    for (int k = 0; k < 9; k++) sizes[k] = 0;
    sizes[0] = TERMS_BAD_INPUT;
    if (desc_len < 6 || first_var < 1) return NULL;
    const int32_t *header = desc;
    int64_t lengths = 0;
    for (int k = 3; k < 6; k++) {
        if (header[k] < 0) return NULL;
        lengths += header[k];
    }
    TermsBuild *b = calloc(1, sizeof(TermsBuild));
    if (!b) {
        sizes[0] = TERMS_NO_MEMORY;
        return NULL;
    }
    b->next_var = b->limit = first_var;
    Reader r = {desc + 6, desc + desc_len};
    int status = read_hashes(b, header, &r);
    if (status == TERMS_OK && r.end - r.at != lengths) status = TERMS_BAD_INPUT;
    const int32_t *accesses = r.at, *initials = accesses + header[3];
    const int32_t *requests = initials + header[4];
    if (status == TERMS_OK)
        status = read_sections(b, (Reader){accesses, initials},
                               (Reader){initials, requests});
    if (status == TERMS_OK) {
        run_requests(b, (Reader){requests, requests + header[5]});
        status = b->status;
    }
    Ints *buffers[6] = {&b->lits, &b->clause_sizes, &b->results, &b->minted,
                        &b->ands.pool, &b->xors.pool};
    for (int k = 0; k < 6; k++)
        if (status == TERMS_OK && buffers[k]->failed) status = TERMS_NO_MEMORY;
    if (status != TERMS_OK) {
        cf_terms_free(b);
        sizes[0] = status;
        return NULL;
    }
    int64_t and_gates = b->ands.count - b->ands.loaded;
    sizes[0] = TERMS_OK;
    sizes[1] = b->next_var;
    sizes[2] = b->lits.size;
    sizes[3] = b->clause_sizes.size;
    sizes[4] = and_gates;
    sizes[5] = b->ands.pool.size - b->ands.first_new - 2 * and_gates;
    sizes[6] = b->xors.count - b->xors.loaded;
    sizes[7] = b->results.size;
    sizes[8] = b->fresh_count;
    return b;
}

/* Copy a build out, in the sizes cf_terms_build reported: ``lits`` the
 * clauses' literals, ``ends`` each clause's end counted from
 * ``literal_base``, and ``rest`` back to back: the new AND gates' operand
 * counts, their operands and their outputs, the new XOR gates' operands
 * and their outputs, the request literals, and each fresh slot's first
 * variable. */
void cf_terms_copy(const TermsBuild *b, int32_t *lits, int64_t *ends,
                   int64_t literal_base, int32_t *rest) {
    if (b->lits.size)
        memcpy(lits, b->lits.data, sizeof(int32_t) * (size_t)b->lits.size);
    int64_t end = literal_base;
    for (int64_t k = 0; k < b->clause_sizes.size; k++) {
        end += b->clause_sizes.data[k];
        ends[k] = end;
    }
    const Ints *pool = &b->ands.pool;
    int64_t gates = b->ands.count - b->ands.loaded;
    int64_t operands = pool->size - b->ands.first_new - 2 * gates;
    int32_t *lens = rest, *ops = lens + gates, *outs = ops + operands;
    for (int64_t at = b->ands.first_new; at < pool->size;
         at += pool->data[at] + 2) {
        int32_t len = pool->data[at];
        *lens++ = len;
        memcpy(ops, pool->data + at + 1, sizeof(int32_t) * (size_t)len);
        ops += len;
        *outs++ = pool->data[at + len + 1];
    }
    pool = &b->xors.pool;
    int64_t xor_gates = b->xors.count - b->xors.loaded;
    int32_t *xor_ops = outs, *xor_outs = xor_ops + 2 * xor_gates;
    for (int64_t at = b->xors.first_new; at < pool->size; at += 4) {
        *xor_ops++ = pool->data[at + 1];
        *xor_ops++ = pool->data[at + 2];
        *xor_outs++ = pool->data[at + 3];
    }
    int32_t *tail = xor_outs;
    if (b->results.size)
        memcpy(tail, b->results.data, sizeof(int32_t) * (size_t)b->results.size);
    tail += b->results.size;
    if (b->minted.size)
        memcpy(tail, b->minted.data, sizeof(int32_t) * (size_t)b->minted.size);
}
