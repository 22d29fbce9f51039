/*
 * cdcl.c -- the native CDCL kernel behind repro.sat.native.
 *
 * A conflict-driven clause-learning SAT solver in the MiniSat/Glucose
 * tradition:
 *
 *   - two watched literals with blocker literals; binary clauses live in
 *     per-literal implication lists outside the clause arena;
 *   - VSIDS decisions from an indexed binary heap, with phase saving;
 *   - first-UIP learning with recursive clause minimization, and Luby
 *     restarts;
 *   - LBD-based deletion of learned clauses ("glue" clauses with LBD <= 2
 *     are kept forever) followed by arena compaction;
 *   - clause addition at decision level 0 (duplicates, tautologies and
 *     root-level facts are handled here);
 *   - solving under assumptions with an analyzeFinal failed-assumption
 *     core, and a terminate callback polled every 64 conflicts and every
 *     4096 decisions.
 *
 * The search is deterministic: no randomness, no dependence on addresses,
 * and every buffer is zero-initialised before use, so two processes given
 * the same clauses report the same counters.
 *
 * Literals cross the API in DIMACS form (+v / -v).  Internally literal
 * 2*v is "v true" and 2*v+1 is "v false".
 *
 * Besides the cf_* entry points used by the ctypes binding, the library
 * exports the IPASIR interface (ipasir_init ... ipasir_set_terminate), so
 * any IPASIR client can load it.
 */

#include <stdint.h>
#include <stdlib.h>
#include <string.h>

#define CF_SAT 10
#define CF_UNSAT 20
#define CF_UNKNOWN 0

/* Clause header words before the literals: size, meta (lbd << 2 | flags),
 * activity (float bits).  A clause reference is the arena index of its
 * first literal, so it is always >= HEADER > 0. */
#define HEADER 3
#define META_LEARNED 1
#define META_DELETED 2

#define RESTART_BASE 100
#define REDUCE_FIRST 2000
#define REDUCE_STEP 300
#define POLL_CONFLICTS_MASK 63
#define POLL_DECISIONS 4096

typedef struct { int32_t *data; int size, cap; } IntVec;
typedef struct { int32_t cref, blocker; } Watch;
typedef struct { Watch *data; int size, cap; } WatchVec;

typedef struct Solver {
    int num_vars, cap_vars;
    int8_t *value;        /* per literal: 1 true, -1 false, 0 unassigned */
    int32_t *level;       /* per variable */
    int32_t *reason;      /* 0 none, > 0 clause ref, < 0 -(other literal) */
    double *activity;
    uint8_t *polarity;    /* saved phase: the sign bit of the last value */
    uint8_t *seen;
    uint8_t *mark;        /* per literal, clause-normalisation scratch */
    int32_t *heap, *heap_pos;
    int heap_size;
    WatchVec *watches;    /* per literal p: long clauses watching ~p */
    IntVec *implied;      /* per literal p: literals implied by p (binaries) */
    int32_t *trail;
    int trail_size, qhead;
    IntVec trail_lim;

    int32_t *arena;
    int64_t arena_size, arena_cap, wasted;
    IntVec originals, learnts;

    double var_inc, cla_inc;
    int ok;
    int32_t bin_conflict[2];

    IntVec learnt, stack, toclear, scratch, assumptions, core;
    uint32_t *level_stamp;
    uint32_t stamp;
    int stamp_cap;

    int8_t *model;
    int model_vars, has_model;

    int64_t decisions, propagations, conflicts, restarts;
    int64_t learned_clauses, deleted_clauses, max_level;
    int64_t next_reduce, reductions;

    int (*terminate)(void *);
    void *terminate_data;

    IntVec ipasir_clause, ipasir_assumptions;
} Solver;

/* ------------------------------------------------------------ helpers */

static void *xrealloc(void *ptr, size_t bytes) {
    void *out = realloc(ptr, bytes ? bytes : 1);
    if (!out) abort();
    return out;
}

static void vec_push(IntVec *v, int32_t x) {
    if (v->size == v->cap) {
        v->cap = v->cap ? v->cap * 2 : 8;
        v->data = xrealloc(v->data, sizeof(int32_t) * (size_t)v->cap);
    }
    v->data[v->size++] = x;
}

static void watch_push(WatchVec *v, int32_t cref, int32_t blocker) {
    if (v->size == v->cap) {
        v->cap = v->cap ? v->cap * 2 : 4;
        v->data = xrealloc(v->data, sizeof(Watch) * (size_t)v->cap);
    }
    v->data[v->size].cref = cref;
    v->data[v->size].blocker = blocker;
    v->size++;
}

static inline int32_t clause_size(const Solver *s, int32_t c) {
    return s->arena[c - 3];
}

static inline float clause_activity(const Solver *s, int32_t c) {
    float f;
    memcpy(&f, &s->arena[c - 1], sizeof f);
    return f;
}

static inline void set_clause_activity(Solver *s, int32_t c, float f) {
    memcpy(&s->arena[c - 1], &f, sizeof f);
}

static inline int32_t ext_of(int32_t lit) {
    return (lit & 1) ? -(lit >> 1) : (lit >> 1);
}

/* --------------------------------------------------------------- heap */

static inline int heap_before(const Solver *s, int32_t a, int32_t b) {
    return s->activity[a] > s->activity[b];
}

static void heap_up(Solver *s, int i) {
    int32_t v = s->heap[i];
    while (i > 0) {
        int parent = (i - 1) >> 1;
        if (!heap_before(s, v, s->heap[parent])) break;
        s->heap[i] = s->heap[parent];
        s->heap_pos[s->heap[i]] = i;
        i = parent;
    }
    s->heap[i] = v;
    s->heap_pos[v] = i;
}

static void heap_down(Solver *s, int i) {
    int32_t v = s->heap[i];
    for (;;) {
        int child = 2 * i + 1;
        if (child >= s->heap_size) break;
        if (child + 1 < s->heap_size
            && heap_before(s, s->heap[child + 1], s->heap[child]))
            child++;
        if (!heap_before(s, s->heap[child], v)) break;
        s->heap[i] = s->heap[child];
        s->heap_pos[s->heap[i]] = i;
        i = child;
    }
    s->heap[i] = v;
    s->heap_pos[v] = i;
}

static void heap_insert(Solver *s, int32_t v) {
    if (s->heap_pos[v] >= 0) return;
    s->heap[s->heap_size] = v;
    s->heap_pos[v] = s->heap_size;
    s->heap_size++;
    heap_up(s, s->heap_size - 1);
}

static int32_t heap_pop(Solver *s) {
    int32_t top = s->heap[0];
    s->heap_pos[top] = -1;
    s->heap_size--;
    if (s->heap_size > 0) {
        s->heap[0] = s->heap[s->heap_size];
        s->heap_pos[s->heap[0]] = 0;
        heap_down(s, 0);
    }
    return top;
}

/* ---------------------------------------------------------- variables */

static void reserve(Solver *s, int num_vars) {
    if (num_vars <= s->num_vars) return;
    if (num_vars > s->cap_vars) {
        int cap = s->cap_vars ? s->cap_vars : 16;
        while (cap < num_vars) cap *= 2;
        size_t vars = (size_t)cap + 1, lits = 2 * vars;
        size_t old_vars = (size_t)s->cap_vars + 1, old_lits = 2 * old_vars;
        if (s->cap_vars == 0) old_vars = old_lits = 0;
#define GROW(field, count, old)                                              \
        s->field = xrealloc(s->field, sizeof(*s->field) * (count));          \
        memset(s->field + (old), 0, sizeof(*s->field) * ((count) - (old)))
        GROW(value, lits, old_lits);
        GROW(mark, lits, old_lits);
        GROW(watches, lits, old_lits);
        GROW(implied, lits, old_lits);
        GROW(level, vars, old_vars);
        GROW(reason, vars, old_vars);
        GROW(activity, vars, old_vars);
        GROW(polarity, vars, old_vars);
        GROW(seen, vars, old_vars);
        GROW(heap, vars, old_vars);
        GROW(heap_pos, vars, old_vars);
        GROW(trail, vars, old_vars);
        GROW(model, vars, old_vars);
#undef GROW
        s->cap_vars = cap;
    }
    for (int v = s->num_vars + 1; v <= num_vars; v++) {
        s->polarity[v] = 1;  /* try "false" first */
        s->heap_pos[v] = -1;
        heap_insert(s, v);
    }
    s->num_vars = num_vars;
}

static inline void assign(Solver *s, int32_t lit, int32_t reason) {
    int32_t v = lit >> 1;
    s->value[lit] = 1;
    s->value[lit ^ 1] = -1;
    s->level[v] = s->trail_lim.size;
    s->reason[v] = reason;
    s->trail[s->trail_size++] = lit;
}

static void backtrack(Solver *s, int target_level) {
    if (s->trail_lim.size <= target_level) return;
    int target = s->trail_lim.data[target_level];
    for (int i = s->trail_size - 1; i >= target; i--) {
        int32_t lit = s->trail[i], v = lit >> 1;
        s->value[lit] = 0;
        s->value[lit ^ 1] = 0;
        s->reason[v] = 0;
        s->polarity[v] = (uint8_t)(lit & 1);
        heap_insert(s, v);
    }
    s->trail_size = target;
    s->qhead = target;
    s->trail_lim.size = target_level;
}

/* -------------------------------------------------------- propagation */

/* Unit propagation.  Returns 0, a conflicting clause reference, or -1 for
 * a binary conflict (its literals are left in bin_conflict). */
static int32_t propagate(Solver *s) {
    int8_t *value = s->value;
    int32_t *arena = s->arena;
    while (s->qhead < s->trail_size) {
        int32_t p = s->trail[s->qhead++];
        int32_t false_lit = p ^ 1;
        s->propagations++;

        IntVec *imp = &s->implied[p];
        for (int k = 0; k < imp->size; k++) {
            int32_t q = imp->data[k];
            int8_t val = value[q];
            if (val == 1) continue;
            if (val == 0) {
                assign(s, q, -false_lit);
            } else {
                s->bin_conflict[0] = q;
                s->bin_conflict[1] = false_lit;
                return -1;
            }
        }

        WatchVec *ws = &s->watches[p];
        Watch *i = ws->data, *j = ws->data, *end = ws->data + ws->size;
        int32_t conflict = 0;
        while (i != end) {
            if (value[i->blocker] == 1) {
                *j++ = *i++;
                continue;
            }
            int32_t cref = i->cref;
            int32_t *c = arena + cref;
            if (c[0] == false_lit) {
                c[0] = c[1];
                c[1] = false_lit;
            }
            i++;
            int32_t first = c[0];
            if (value[first] == 1) {
                j->cref = cref;
                j->blocker = first;
                j++;
                continue;
            }
            int32_t size = arena[cref - 3];
            int found = 0;
            for (int k = 2; k < size; k++) {
                if (value[c[k]] != -1) {
                    c[1] = c[k];
                    c[k] = false_lit;
                    watch_push(&s->watches[c[1] ^ 1], cref, first);
                    found = 1;
                    break;
                }
            }
            if (found) continue;
            j->cref = cref;
            j->blocker = first;
            j++;
            if (value[first] == -1) {
                conflict = cref;
                while (i != end) *j++ = *i++;
            } else {
                assign(s, first, cref);
            }
        }
        ws->size = (int)(j - ws->data);
        if (conflict) return conflict;
    }
    return 0;
}

/* --------------------------------------------------------- activities */

static void bump_var(Solver *s, int32_t v) {
    if ((s->activity[v] += s->var_inc) > 1e100) {
        for (int u = 1; u <= s->num_vars; u++) s->activity[u] *= 1e-100;
        s->var_inc *= 1e-100;
    }
    if (s->heap_pos[v] >= 0) heap_up(s, s->heap_pos[v]);
}

static void bump_clause(Solver *s, int32_t c) {
    float act = clause_activity(s, c) + (float)s->cla_inc;
    set_clause_activity(s, c, act);
    if (act > 1e20f) {
        for (int k = 0; k < s->learnts.size; k++) {
            int32_t l = s->learnts.data[k];
            set_clause_activity(s, l, clause_activity(s, l) * 1e-20f);
        }
        s->cla_inc *= 1e-20;
    }
}

/* --------------------------------------------------- conflict analysis */

static inline uint32_t abstract_level(const Solver *s, int32_t v) {
    return 1u << (s->level[v] & 31);
}

/* Is ``p`` implied by the other literals of the learned clause (marked in
 * ``seen``)?  MiniSat's recursive minimization with an explicit stack. */
static int lit_redundant(Solver *s, int32_t p, uint32_t levels) {
    IntVec *stack = &s->stack;
    int top = s->toclear.size;
    stack->size = 0;
    vec_push(stack, p);
    while (stack->size > 0) {
        int32_t q = stack->data[--stack->size];
        int32_t r = s->reason[q >> 1];
        const int32_t *lits;
        int32_t n, single;
        if (r > 0) {
            lits = s->arena + r + 1;
            n = clause_size(s, r) - 1;
        } else {
            single = -r;
            lits = &single;
            n = 1;
        }
        for (int k = 0; k < n; k++) {
            int32_t l = lits[k], v = l >> 1;
            if (s->seen[v] || s->level[v] == 0) continue;
            if (s->reason[v] != 0 && (abstract_level(s, v) & levels)) {
                s->seen[v] = 1;
                vec_push(stack, l);
                vec_push(&s->toclear, l);
            } else {
                for (int t = top; t < s->toclear.size; t++)
                    s->seen[s->toclear.data[t] >> 1] = 0;
                s->toclear.size = top;
                return 0;
            }
        }
    }
    return 1;
}

/* First-UIP analysis of ``conflict``: leaves the learned clause in
 * s->learnt (asserting literal first, highest remaining level second) and
 * returns the backjump level; *lbd receives its literal block distance. */
static int analyze(Solver *s, int32_t conflict, int *lbd) {
    IntVec *out = &s->learnt;
    out->size = 0;
    vec_push(out, 0);
    int path = 0, index = s->trail_size - 1;
    int current = s->trail_lim.size;
    int32_t p = -1, single;
    for (;;) {
        const int32_t *lits;
        int32_t n;
        if (conflict == -1) {
            lits = s->bin_conflict;
            n = 2;
        } else if (conflict > 0) {
            lits = s->arena + conflict;
            n = clause_size(s, conflict);
            if (s->arena[conflict - 2] & META_LEARNED) bump_clause(s, conflict);
            if (p != -1) { lits++; n--; }
        } else {
            single = -conflict;
            lits = &single;
            n = 1;
        }
        for (int k = 0; k < n; k++) {
            int32_t q = lits[k], v = q >> 1;
            if (s->seen[v] || s->level[v] == 0) continue;
            s->seen[v] = 1;
            bump_var(s, v);
            if (s->level[v] >= current) path++;
            else vec_push(out, q);
        }
        while (!s->seen[s->trail[index] >> 1]) index--;
        p = s->trail[index--];
        conflict = s->reason[p >> 1];
        s->seen[p >> 1] = 0;
        if (--path == 0) break;
    }
    out->data[0] = p ^ 1;

    /* Minimize: drop literals implied by the rest of the clause. */
    s->toclear.size = 0;
    uint32_t levels = 0;
    for (int k = 0; k < out->size; k++) vec_push(&s->toclear, out->data[k]);
    for (int k = 1; k < out->size; k++)
        levels |= abstract_level(s, out->data[k] >> 1);
    int kept = 1;
    for (int k = 1; k < out->size; k++) {
        int32_t q = out->data[k];
        if (s->reason[q >> 1] == 0 || !lit_redundant(s, q, levels))
            out->data[kept++] = q;
    }
    out->size = kept;
    for (int k = 0; k < s->toclear.size; k++)
        s->seen[s->toclear.data[k] >> 1] = 0;

    int backjump = 0;
    if (out->size > 1) {
        int best = 1;
        for (int k = 2; k < out->size; k++)
            if (s->level[out->data[k] >> 1] > s->level[out->data[best] >> 1])
                best = k;
        int32_t tmp = out->data[1];
        out->data[1] = out->data[best];
        out->data[best] = tmp;
        backjump = s->level[out->data[1] >> 1];
    }

    if (s->trail_lim.size >= s->stamp_cap) {
        int cap = 2 * s->trail_lim.size + 16;
        s->level_stamp = xrealloc(s->level_stamp, sizeof(uint32_t) * (size_t)cap);
        memset(s->level_stamp + s->stamp_cap, 0,
               sizeof(uint32_t) * (size_t)(cap - s->stamp_cap));
        s->stamp_cap = cap;
    }
    s->stamp++;
    int distinct = 0;
    for (int k = 0; k < out->size; k++) {
        int lv = s->level[out->data[k] >> 1];
        if (s->level_stamp[lv] != s->stamp) {
            s->level_stamp[lv] = s->stamp;
            distinct++;
        }
    }
    *lbd = distinct;
    return backjump;
}

/* The assumptions responsible for assumption ``p`` being false: ``p``
 * itself plus every assumption decision its negation depends on. */
static void analyze_final(Solver *s, int32_t p) {
    s->core.size = 0;
    vec_push(&s->core, ext_of(p));
    if (s->trail_lim.size == 0) return;
    s->seen[p >> 1] = 1;
    for (int i = s->trail_size - 1; i >= s->trail_lim.data[0]; i--) {
        int32_t lit = s->trail[i], v = lit >> 1;
        if (!s->seen[v]) continue;
        int32_t r = s->reason[v];
        if (r == 0) {
            vec_push(&s->core, ext_of(lit));
        } else if (r > 0) {
            int32_t n = clause_size(s, r);
            for (int k = 1; k < n; k++) {
                int32_t u = s->arena[r + k] >> 1;
                if (s->level[u] > 0) s->seen[u] = 1;
            }
        } else if (s->level[(-r) >> 1] > 0) {
            s->seen[(-r) >> 1] = 1;
        }
        s->seen[v] = 0;
    }
    s->seen[p >> 1] = 0;
}

/* -------------------------------------------------------- clause store */

static int32_t alloc_clause(Solver *s, const int32_t *lits, int n, int meta) {
    int64_t need = s->arena_size + HEADER + n;
    if (need > s->arena_cap) {
        int64_t cap = s->arena_cap ? s->arena_cap : 1024;
        while (cap < need) cap *= 2;
        s->arena = xrealloc(s->arena, sizeof(int32_t) * (size_t)cap);
        s->arena_cap = cap;
    }
    int32_t cref = (int32_t)(s->arena_size + HEADER);
    s->arena[cref - 3] = n;
    s->arena[cref - 2] = meta;
    s->arena[cref - 1] = 0;
    memcpy(s->arena + cref, lits, sizeof(int32_t) * (size_t)n);
    s->arena_size = need;
    return cref;
}

static void attach(Solver *s, int32_t cref) {
    int32_t *c = s->arena + cref;
    watch_push(&s->watches[c[0] ^ 1], cref, c[1]);
    watch_push(&s->watches[c[1] ^ 1], cref, c[0]);
}

static inline int locked(const Solver *s, int32_t cref) {
    int32_t first = s->arena[cref];
    return s->value[first] == 1 && s->reason[first >> 1] == cref;
}

typedef struct { int32_t lbd; float activity; int32_t cref; } Candidate;

/* Worse clauses first: higher LBD, then lower activity, then younger. */
static int compare_candidates(const void *a, const void *b) {
    const Candidate *x = a, *y = b;
    if (x->lbd != y->lbd) return x->lbd > y->lbd ? -1 : 1;
    if (x->activity != y->activity) return x->activity < y->activity ? -1 : 1;
    return x->cref > y->cref ? -1 : (x->cref < y->cref ? 1 : 0);
}

static void compact_arena(Solver *s) {
    int64_t cap = s->arena_size - s->wasted + 1024;
    int32_t *fresh = xrealloc(NULL, sizeof(int32_t) * (size_t)cap);
    int64_t size = 0;
    IntVec *lists[2] = {&s->originals, &s->learnts};
    for (int l = 0; l < 2; l++) {
        IntVec *list = lists[l];
        for (int k = 0; k < list->size; k++) {
            int32_t old = list->data[k];
            int32_t n = s->arena[old - 3];
            int32_t cref = (int32_t)(size + HEADER);
            memcpy(fresh + size, s->arena + old - HEADER,
                   sizeof(int32_t) * (size_t)(HEADER + n));
            size += HEADER + n;
            s->arena[old - 3] = cref;  /* forwarding address */
            list->data[k] = cref;
        }
    }
    for (int i = 0; i < s->trail_size; i++) {
        int32_t v = s->trail[i] >> 1;
        if (s->reason[v] > 0) s->reason[v] = s->arena[s->reason[v] - 3];
    }
    for (int lit = 2; lit < 2 * (s->num_vars + 1); lit++) {
        WatchVec *ws = &s->watches[lit];
        for (int k = 0; k < ws->size; k++)
            ws->data[k].cref = s->arena[ws->data[k].cref - 3];
    }
    free(s->arena);
    s->arena = fresh;
    s->arena_size = size;
    s->arena_cap = cap;
    s->wasted = 0;
}

/* Delete the worse half of the non-glue, unlocked learned clauses. */
static void reduce_learnts(Solver *s) {
    Candidate *cand = xrealloc(NULL, sizeof(Candidate)
                                     * (size_t)(s->learnts.size + 1));
    int count = 0;
    for (int k = 0; k < s->learnts.size; k++) {
        int32_t c = s->learnts.data[k];
        int32_t lbd = s->arena[c - 2] >> 2;
        if (lbd > 2 && !locked(s, c)) {
            cand[count].lbd = lbd;
            cand[count].activity = clause_activity(s, c);
            cand[count].cref = c;
            count++;
        }
    }
    qsort(cand, (size_t)count, sizeof(Candidate), compare_candidates);
    for (int k = 0; k < count / 2; k++) {
        int32_t c = cand[k].cref;
        s->arena[c - 2] |= META_DELETED;
        s->wasted += HEADER + clause_size(s, c);
        s->deleted_clauses++;
    }
    free(cand);
    if (count < 2) return;
    int kept = 0;
    for (int k = 0; k < s->learnts.size; k++) {
        int32_t c = s->learnts.data[k];
        if (!(s->arena[c - 2] & META_DELETED)) s->learnts.data[kept++] = c;
    }
    s->learnts.size = kept;
    for (int lit = 2; lit < 2 * (s->num_vars + 1); lit++) {
        WatchVec *ws = &s->watches[lit];
        int out = 0;
        for (int k = 0; k < ws->size; k++)
            if (!(s->arena[ws->data[k].cref - 2] & META_DELETED))
                ws->data[out++] = ws->data[k];
        ws->size = out;
    }
    if (s->wasted * 4 > s->arena_size) compact_arena(s);
}

/* Add one clause at decision level 0.  Returns 0 when the formula became
 * unsatisfiable, -1 on a zero literal, 1 otherwise. */
static int add_clause(Solver *s, const int32_t *lits, int64_t n) {
    IntVec *tmp = &s->scratch;
    tmp->size = 0;
    for (int64_t k = 0; k < n; k++) {
        int32_t ext = lits[k];
        if (ext == 0) return -1;
        int32_t v = ext > 0 ? ext : -ext;
        if (v > s->num_vars) reserve(s, v);
    }
    if (!s->ok) return 0;
    int satisfied = 0;
    for (int64_t k = 0; k < n && !satisfied; k++) {
        int32_t ext = lits[k];
        int32_t lit = ext > 0 ? 2 * ext : 2 * -ext + 1;
        if (s->mark[lit]) continue;
        if (s->mark[lit ^ 1] || s->value[lit] == 1) satisfied = 1;
        else if (s->value[lit] == 0) {
            s->mark[lit] = 1;
            vec_push(tmp, lit);
        }
    }
    for (int t = 0; t < tmp->size; t++) s->mark[tmp->data[t]] = 0;
    if (satisfied) return 1;
    if (tmp->size == 0) {
        s->ok = 0;
        return 0;
    }
    if (tmp->size == 1) {
        assign(s, tmp->data[0], 0);
        if (propagate(s) != 0) s->ok = 0;
        return s->ok;
    }
    if (tmp->size == 2) {
        vec_push(&s->implied[tmp->data[0] ^ 1], tmp->data[1]);
        vec_push(&s->implied[tmp->data[1] ^ 1], tmp->data[0]);
        return 1;
    }
    int32_t cref = alloc_clause(s, tmp->data, tmp->size, 0);
    vec_push(&s->originals, cref);
    attach(s, cref);
    return 1;
}

/* -------------------------------------------------------------- search */

static int64_t luby(int64_t index) {
    int64_t size = 1, seq = 0;
    while (size < index + 1) {
        seq++;
        size = 2 * size + 1;
    }
    while (size - 1 != index) {
        size = (size - 1) >> 1;
        seq--;
        index = index % size;
    }
    return (int64_t)1 << seq;
}

static void learn(Solver *s, int lbd) {
    IntVec *out = &s->learnt;
    if (out->size == 1) {
        assign(s, out->data[0], 0);
        return;
    }
    s->learned_clauses++;
    if (out->size == 2) {
        vec_push(&s->implied[out->data[0] ^ 1], out->data[1]);
        vec_push(&s->implied[out->data[1] ^ 1], out->data[0]);
        assign(s, out->data[0], -out->data[1]);
        return;
    }
    int32_t cref = alloc_clause(s, out->data, out->size,
                                (lbd << 2) | META_LEARNED);
    vec_push(&s->learnts, cref);
    attach(s, cref);
    bump_clause(s, cref);
    assign(s, out->data[0], cref);
}

static int stop_requested(Solver *s) {
    return s->terminate != NULL && s->terminate(s->terminate_data) != 0;
}

/* Solve under ``assumptions`` (DIMACS literals).  Returns CF_SAT,
 * CF_UNSAT, or CF_UNKNOWN when the terminate callback asked to stop. */
int cf_solve(Solver *s, const int32_t *assumptions, int count) {
    s->has_model = 0;
    s->core.size = 0;
    backtrack(s, 0);
    s->assumptions.size = 0;
    for (int k = 0; k < count; k++) {
        int32_t ext = assumptions[k];
        if (ext == 0) return -1;
        int32_t v = ext > 0 ? ext : -ext;
        if (v > s->num_vars) reserve(s, v);
        vec_push(&s->assumptions, ext > 0 ? 2 * ext : 2 * -ext + 1);
    }
    if (!s->ok) return CF_UNSAT;
    if (propagate(s) != 0) {
        s->ok = 0;
        return CF_UNSAT;
    }
    int64_t conflicts = 0, since_restart = 0, restart_index = 0;
    int64_t restart_budget = RESTART_BASE * luby(0);
    int64_t decisions_since_poll = 0;
    for (;;) {
        int32_t conflict = propagate(s);
        if (conflict != 0) {
            s->conflicts++;
            conflicts++;
            since_restart++;
            if (s->trail_lim.size == 0) {
                s->ok = 0;
                return CF_UNSAT;
            }
            int lbd;
            int backjump = analyze(s, conflict, &lbd);
            backtrack(s, backjump);
            learn(s, lbd);
            s->var_inc *= 1 / 0.95;
            s->cla_inc *= 1 / 0.999;
            if ((conflicts & POLL_CONFLICTS_MASK) == 0 && stop_requested(s)) {
                backtrack(s, 0);
                return CF_UNKNOWN;
            }
            if (since_restart >= restart_budget) {
                s->restarts++;
                restart_index++;
                restart_budget = RESTART_BASE * luby(restart_index);
                since_restart = 0;
                backtrack(s, 0);
            }
            if (s->conflicts >= s->next_reduce) {
                s->reductions++;
                s->next_reduce = s->conflicts + REDUCE_FIRST
                                 + REDUCE_STEP * s->reductions;
                reduce_learnts(s);
            }
            continue;
        }
        if (s->trail_lim.size < s->assumptions.size) {
            int32_t p = s->assumptions.data[s->trail_lim.size];
            if (s->value[p] == -1) {
                analyze_final(s, p);
                backtrack(s, 0);
                return CF_UNSAT;
            }
            vec_push(&s->trail_lim, s->trail_size);
            if (s->value[p] == 0) assign(s, p, 0);
            continue;
        }
        int32_t v = 0;
        while (s->heap_size > 0) {
            int32_t u = heap_pop(s);
            if (s->value[2 * u] == 0) {
                v = u;
                break;
            }
        }
        if (v == 0) {
            for (int u = 1; u <= s->num_vars; u++)
                s->model[u] = s->value[2 * u] == 1;
            s->model_vars = s->num_vars;
            s->has_model = 1;
            backtrack(s, 0);
            return CF_SAT;
        }
        s->decisions++;
        if (s->terminate != NULL && ++decisions_since_poll >= POLL_DECISIONS) {
            decisions_since_poll = 0;
            if (stop_requested(s)) {
                heap_insert(s, v);
                backtrack(s, 0);
                return CF_UNKNOWN;
            }
        }
        vec_push(&s->trail_lim, s->trail_size);
        if (s->trail_lim.size > s->max_level) s->max_level = s->trail_lim.size;
        assign(s, 2 * v + s->polarity[v], 0);
    }
}

/* ------------------------------------------------------------ cf_* API */

Solver *cf_new(void) {
    Solver *s = calloc(1, sizeof(Solver));
    if (!s) return NULL;
    s->var_inc = 1.0;
    s->cla_inc = 1.0;
    s->ok = 1;
    s->next_reduce = REDUCE_FIRST;
    return s;
}

void cf_free(Solver *s) {
    if (!s) return;
    if (s->cap_vars) {
        for (size_t lit = 0; lit < 2 * ((size_t)s->cap_vars + 1); lit++) {
            free(s->watches[lit].data);
            free(s->implied[lit].data);
        }
    }
    free(s->value); free(s->mark); free(s->watches); free(s->implied);
    free(s->level); free(s->reason); free(s->activity); free(s->polarity);
    free(s->seen); free(s->heap); free(s->heap_pos); free(s->trail);
    free(s->level_stamp); free(s->model); free(s->arena);
    IntVec *vecs[] = {
        &s->trail_lim, &s->originals, &s->learnts, &s->learnt, &s->stack,
        &s->toclear, &s->scratch, &s->assumptions, &s->core,
        &s->ipasir_clause, &s->ipasir_assumptions,
    };
    for (size_t k = 0; k < sizeof vecs / sizeof vecs[0]; k++)
        free(vecs[k]->data);
    free(s);
}

void cf_reserve(Solver *s, int num_vars) {
    reserve(s, num_vars);
}

/* Add clauses ``first`` .. ``first + count - 1`` of a flat clause buffer:
 * ``lits`` holds every literal back to back and ``ends[i]`` the exclusive
 * end offset of clause ``i`` (the layout of repro.sat.cnf.CNF).  Returns
 * 1, 0 once the formula is unsatisfiable, or -1 on a zero literal. */
int cf_add_clauses(Solver *s, const int32_t *lits, const int64_t *ends,
                   int64_t first, int64_t count) {
    backtrack(s, 0);
    int64_t begin = first > 0 ? ends[first - 1] : 0;
    int result = s->ok;
    for (int64_t i = first; i < first + count; i++) {
        int r = add_clause(s, lits + begin, ends[i] - begin);
        if (r < 0) return -1;
        result = r;
        begin = ends[i];
    }
    return result && s->ok;
}

int cf_add_clause(Solver *s, const int32_t *lits, int count) {
    backtrack(s, 0);
    return add_clause(s, lits, count);
}

/* Copy the last model into ``out[1..num_vars]`` (1 = true).  Returns the
 * number of variables copied, or -1 when the last solve was not SAT. */
int cf_model(const Solver *s, int8_t *out, int num_vars) {
    if (!s->has_model) return -1;
    int n = num_vars < s->model_vars ? num_vars : s->model_vars;
    memcpy(out + 1, s->model + 1, (size_t)n);
    return n;
}

/* Copy the failed-assumption core of the last UNSAT solve into ``out``
 * (at most ``cap`` literals); returns its size. */
int cf_failed(const Solver *s, int32_t *out, int cap) {
    int n = s->core.size < cap ? s->core.size : cap;
    memcpy(out, s->core.data, sizeof(int32_t) * (size_t)n);
    return n;
}

/* Cumulative counters, in the field order of repro.sat.solver.SolverStats:
 * decisions, propagations, conflicts, restarts, learned clauses, deleted
 * clauses, deepest decision level. */
void cf_stats(const Solver *s, int64_t *out) {
    out[0] = s->decisions;
    out[1] = s->propagations;
    out[2] = s->conflicts;
    out[3] = s->restarts;
    out[4] = s->learned_clauses;
    out[5] = s->deleted_clauses;
    out[6] = s->max_level;
}

/* ------------------------------------------------------------- IPASIR */

const char *ipasir_signature(void) {
    return "repro-cdcl";
}

void *ipasir_init(void) {
    return cf_new();
}

void ipasir_release(void *solver) {
    cf_free(solver);
}

void ipasir_add(void *solver, int32_t lit) {
    Solver *s = solver;
    if (lit != 0) {
        vec_push(&s->ipasir_clause, lit);
        return;
    }
    cf_add_clause(s, s->ipasir_clause.data, s->ipasir_clause.size);
    s->ipasir_clause.size = 0;
}

void ipasir_assume(void *solver, int32_t lit) {
    vec_push(&((Solver *)solver)->ipasir_assumptions, lit);
}

int ipasir_solve(void *solver) {
    Solver *s = solver;
    int result = cf_solve(s, s->ipasir_assumptions.data,
                          s->ipasir_assumptions.size);
    s->ipasir_assumptions.size = 0;
    return result < 0 ? CF_UNKNOWN : result;
}

int32_t ipasir_val(void *solver, int32_t lit) {
    const Solver *s = solver;
    int32_t v = lit > 0 ? lit : -lit;
    if (!s->has_model || v > s->model_vars) return -lit;
    return (s->model[v] == 1) == (lit > 0) ? lit : -lit;
}

int ipasir_failed(void *solver, int32_t lit) {
    const Solver *s = solver;
    for (int k = 0; k < s->core.size; k++)
        if (s->core.data[k] == lit) return 1;
    return 0;
}

void ipasir_set_terminate(void *solver, void *data, int (*terminate)(void *)) {
    Solver *s = solver;
    s->terminate = terminate;
    s->terminate_data = data;
}
