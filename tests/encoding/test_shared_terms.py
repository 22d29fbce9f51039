"""The skeleton's shared terms built in C equal the Python gate builder's.

Each encoding skeleton builds its address comparisons and initial-value
terms in one native batch (:class:`repro.encoding.formula.SharedTermBatch`,
``terms.c``).  The loop it replaced, which built every term through the
lazy :meth:`EncodingContext.addr_eq` and
:meth:`EncodingContext.initial_value_term`, lives on in
``terms_reference.py``.  These tests hold the two to equal state (the
CNF's variables, literals, clause ends and names; the AND, XOR and ITE
hashes; the comparisons, initial-value terms and initial values; the
access table's constant edges and same-address pairs):

* on every small-catalog test, the fig10-large rows, the instrumented and
  fenced programs of the four synthesis pairs and a seeded fuzz corpus;
* on random batches with constant, duplicate and complementary bits,
  mismatched widths, every kind of initial value and gates built before
  the batch;
* on the layers that still build comparisons lazily, on their forks.

They also pin the binding's contract: a malformed descriptor and a
variable past 32 bits raise :class:`ValueError`, running out of memory
raises :class:`MemoryError`, and the build is freed on every path.
"""

from __future__ import annotations

import dataclasses
import subprocess
import sys
import textwrap
from array import array
from types import SimpleNamespace
from unittest import mock

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.core.synthesize import apply_fences, instrument_program
from repro.datatypes.registry import (
    base_implementations,
    category_of,
    get_implementation,
)
from repro.encoding import compile_test, formula
from repro.encoding.formula import (
    EncodingContext,
    SharedTermBatch,
    build_skeleton,
)
from repro.encoding.memory import MemoryModelEncoder
from repro.encoding.symbolic import EncodingError, MemoryAccess
from repro.fuzz import generate_corpus
from repro.harness.catalog import get_test
from repro.harness.catalog import test_names as catalog_test_names
from repro.lang import compile_c
from repro.lsl.values import UNDEF
from repro.memorymodel.base import get_model
from repro.sat import native
from repro.sat.bitvec import BitVec
from repro.sat.circuit import Circuit

from terms_reference import prewarm_shared_terms as reference_prewarm

#: Every small-catalog implementation, fenced and unfenced.
IMPLEMENTATIONS = [
    name
    for base in base_implementations()
    for name in (base, f"{base}-unfenced")
]

#: perfbench's fig10-large rows.
LARGE_ROWS = [
    ("msn", "Tpc4"),
    ("ms2", "Tpc4"),
    ("lazylist", "Sacr"),
    ("lazylist-unfenced", "Sacr"),
]

#: perfbench's synthesis pairs, with the fence sets synthesis finds for
#: them under pso and relaxed.
SYNTHESIS_FENCES = {
    ("msn-unfenced", "T0"): [
        {"enqueue@0:store-store"},
        {"dequeue@1:load-load", "enqueue@6:store-store"},
    ],
    ("ms2-unfenced", "T0"): [
        {"enqueue@0:store-store"},
        {"dequeue@2:load-load", "enqueue@0:store-store"},
    ],
    ("lazylist-unfenced", "Sac"): [
        {"add@10:store-store"},
        {"add@10:store-store", "contains@1:load-load"},
    ],
    ("harris-unfenced", "Sac"): [
        {"add@6:store-store"},
        {"add@6:store-store", "contains@1:load-load"},
    ],
}


# ---------------------------------------------------------------- state


def _context_state(context: EncodingContext) -> dict:
    """Everything the prewarm may write into a context, in order."""
    circuit = context.circuit
    cnf = circuit.cnf
    return {
        "variables": cnf.num_vars,
        "literals": cnf._lits.tobytes(),
        "ends": cnf._ends.tobytes(),
        "names": list(cnf.names.items()),
        "AND hash": list(circuit._and_cache.items()),
        "XOR hash": list(circuit._xor_cache.items()),
        "ITE hash": list(circuit._ite_cache.items()),
        "comparisons": list(context._addr_eq.items()),
        "initial-value terms": list(context._init_terms.items()),
        "initial values": list(context._initial_values.items()),
    }


def _state(skeleton) -> dict:
    table = skeleton.table
    state = _context_state(skeleton.context)
    state["constant edges"] = [(a.index, b.index) for a, b in table.const_edges]
    state["same-address pairs"] = [
        (a.index, b.index, lit) for a, b, lit in table.same_address_pairs
    ]
    return state


def _assert_equal_states(built: dict, expected: dict, where) -> None:
    assert built.keys() == expected.keys()
    for part, value in expected.items():
        assert built[part] == value, (where, part)


def _skeletons(compiled, where=None):
    """``(native, reference)``: the skeleton as built, and as the Python
    gate builder prewarms it; their states must be equal."""
    built = build_skeleton(compiled)
    with mock.patch.object(formula, "_prewarm_shared_terms", reference_prewarm):
        reference = build_skeleton(compiled)
    _assert_equal_states(_state(built), _state(reference), where)
    return built, reference


def _compile(implementation: str, test: str, program=None):
    return compile_test(
        get_implementation(implementation),
        get_test(category_of(implementation), test),
        program=program,
    )


@pytest.fixture(scope="module")
def small_skeletons():
    """``(test name, native skeleton, reference skeleton)`` of every small
    test of an implementation, built once for the tests below."""
    built: dict[str, list] = {}

    def of(implementation: str):
        if implementation not in built:
            built[implementation] = [
                (name, *_skeletons(
                    _compile(implementation, name), (implementation, name)
                ))
                for name in catalog_test_names(
                    category_of(implementation), "small"
                )
            ]
        return built[implementation]

    yield of
    built.clear()


# ------------------------------------------------------- real programs


@pytest.mark.parametrize("implementation", IMPLEMENTATIONS)
def test_the_small_catalog_prewarms_identically(implementation,
                                                small_skeletons):
    skeletons = small_skeletons(implementation)
    assert skeletons
    for name, built, _ in skeletons:
        assert built.context._addr_eq and built.context._init_terms, name


def test_layers_building_comparisons_on_forks_are_identical(small_skeletons):
    """Without the same-address store order (the switch the
    ``drop_same_address_axiom`` mutant turns off) a layer's static order
    is weaker than the prewarm's, so its value descriptor compares pairs
    the prewarm skipped, lazily on the fork.  Those gates hash-cons with
    the batch's exactly as with the Python prewarm's."""
    lazily_built = 0
    for implementation in IMPLEMENTATIONS:
        for name, built, reference in small_skeletons(implementation):
            for model_name in ("sc", "relaxed"):
                model = dataclasses.replace(
                    get_model(model_name), same_address_store_order=False
                )
                layers = []
                for skeleton in (built, reference):
                    fork = skeleton.context.fork()
                    order = MemoryModelEncoder(
                        fork, model, skeleton.table
                    ).encode()
                    layers.append((
                        _context_state(fork), order.table,
                        list(order.sources.items()),
                    ))
                lazily_built += len(layers[0][0]["comparisons"]) - len(
                    built.context._addr_eq
                )
                where = (implementation, name, model_name)
                _assert_equal_states(layers[0][0], layers[1][0], where)
                assert layers[0][1:] == layers[1][1:], where
    assert lazily_built == 68


@pytest.mark.parametrize("implementation, test", LARGE_ROWS)
def test_the_fig10_large_rows_prewarm_identically(implementation, test):
    built, _ = _skeletons(_compile(implementation, test), test)
    assert len(built.context._addr_eq) > 300


@pytest.mark.parametrize("implementation, test", sorted(SYNTHESIS_FENCES))
def test_the_synthesis_programs_prewarm_identically(implementation, test):
    """The instrumented program synthesis searches, and the programs with
    the fences it finds, which it re-checks."""
    impl = get_implementation(implementation)
    program = compile_c(impl.source, impl.name)
    instrumented, candidates = instrument_program(program)
    built, _ = _skeletons(
        _compile(implementation, test, instrumented), implementation
    )
    assert built.context.fence_selectors
    for labels in SYNTHESIS_FENCES[implementation, test]:
        fences = [c for c in candidates if c.label in labels]
        assert len(fences) == len(labels)
        _skeletons(
            _compile(implementation, test, apply_fences(program, fences)),
            (implementation, sorted(labels)),
        )


def test_a_fuzz_corpus_prewarms_identically():
    programs = generate_corpus(seed=36, budget=40)
    assert len(programs) == 40
    for program in programs:
        _skeletons(program.compile(), program.spec())


# --------------------------------------------------------- random batches


class _Layout:
    def __init__(self, initial: dict) -> None:
        self._initial = initial

    def info(self, location: int):
        return SimpleNamespace(initial=self._initial[location])

    def valid_indices(self):
        return range(1, len(self._initial) + 1)


class _Ranges:
    def __init__(self, width: int, domains: dict) -> None:
        self._width = width
        self._domains = domains

    def width(self) -> int:
        return self._width

    def location_domain(self, location: int):
        return self._domains.get(location)


def _access(index: int, addr, value, candidates) -> MemoryAccess:
    return MemoryAccess(
        index=index, kind="load", thread=1, invocation=0, seq=index,
        guard=Circuit.TRUE, addr=BitVec(tuple(addr)),
        value=BitVec(tuple(value)), addr_candidates=candidates,
        atomic_group=None, label=f"access {index}",
    )


def _scenario_context(scenario):
    """A context over a made-up layout, with the scenario's variables,
    gates and initial values built before the batch, and its accesses."""
    width, initial, domains, zeroed, variables, accesses, prebuilt, known = (
        scenario
    )
    compiled = SimpleNamespace(
        layout=_Layout(initial), ranges=_Ranges(width, domains),
        allocation=None,
    )
    context = EncodingContext(compiled)
    for location in zeroed:
        context._heap_policies[location] = "zero"
    for _ in range(variables):
        context.circuit.var()
    accesses = [_access(i, *access) for i, access in enumerate(accesses)]
    # Gates symbolic execution built: the batch must find them.
    for first, second in prebuilt:
        context.bvb.eq(accesses[first].addr, accesses[second].value)
    for location in known:
        context.initial_value(location)
    return context, accesses


def _run(context, requests, accesses, batch: bool):
    """Build the requests through a batch or one by one; returns the
    exception type raised, or None."""
    terms = SharedTermBatch(context, accesses) if batch else context
    try:
        for request in requests:
            if request[0] == "eq":
                terms.addr_eq(accesses[request[1]], accesses[request[2]])
            else:
                terms.initial_value_term(accesses[request[1]])
        if batch:
            terms.build()
    except (ValueError, EncodingError) as exc:
        return type(exc)
    return None


def _assert_batch_matches_reference(scenario, requests):
    context, accesses = _scenario_context(scenario)
    reference, built = context.fork(), context.fork()
    raised = _run(reference, requests, accesses, batch=False)
    assert _run(built, requests, accesses, batch=True) is raised
    if raised is None:
        _assert_equal_states(
            _context_state(built), _context_state(reference), requests
        )
    return built, raised


@st.composite
def _scenarios(draw):
    width = draw(st.integers(1, 3))
    locations = draw(st.integers(1, 4))
    initial, domains, zeroed = {}, {}, []
    for location in range(1, locations + 1):
        kind = draw(st.sampled_from(["constant", "zero", "domain", "havoc"]))
        if kind == "constant":
            initial[location] = draw(st.integers(0, (1 << width) - 1))
            continue
        initial[location] = UNDEF
        if kind == "zero":
            zeroed.append(location)
        elif kind == "domain":  # values past the width are dropped
            domains[location] = set(draw(
                st.lists(st.integers(0, (1 << width) + 2), max_size=6)
            ))
    variables = draw(st.integers(1, 5))
    literals = [1, -1] + [
        lit for var in range(2, variables + 2) for lit in (var, -var)
    ]
    vector = st.lists(st.sampled_from(literals), max_size=width + 1)
    count = draw(st.integers(1, 5))
    accesses = [
        (
            draw(vector), draw(vector),
            draw(st.one_of(
                st.none(), st.lists(st.integers(0, locations), max_size=3)
            )),
        )
        for _ in range(count)
    ]
    index = st.integers(0, count - 1)
    prebuilt = draw(st.lists(st.tuples(index, index), max_size=3))
    known = draw(st.lists(st.integers(1, locations), max_size=2))
    requests = draw(st.lists(
        st.one_of(
            st.tuples(st.just("eq"), index, index),
            st.tuples(st.just("init"), index),
        ),
        max_size=10,
    ))
    return (width, initial, domains, zeroed, variables, accesses, prebuilt,
            known), requests


#: One location of every initial-value kind under a 2-bit width.
_LOCATIONS = (
    2,
    {1: 3, 2: UNDEF, 3: UNDEF, 4: UNDEF},
    {3: {0, 2, 7}},
    [2],
)


@settings(max_examples=300, deadline=None)
@given(_scenarios())
@example(((*_LOCATIONS, 4, [((2, 1, 3), (4,), None), ((2, -1, 5), (), [1])],
           [], []), [("eq", 0, 1), ("init", 0), ("init", 1)]))
@example(((*_LOCATIONS, 4, [((2, 2, 4), (5,), [3, 4]), ((3, -3, 5), (1,), None)],
           [(0, 1)], [3]), [("eq", 0, 1), ("init", 1), ("init", 0)]))
def test_random_batches_build_what_the_gates_build(case):
    scenario, requests = case
    _assert_batch_matches_reference(scenario, requests)


def _single(accesses, requests, variables=4):
    built, raised = _assert_batch_matches_reference(
        (*_LOCATIONS, variables, accesses, [], []), requests
    )
    assert raised is None
    return built


def test_a_false_bit_pair_ends_a_comparison():
    """``eq`` stops at its first FALSE bit: the bits after it get no
    gate."""
    built = _single(
        [((2, 1, 3), (4,), None), ((2, -1, 5), (4,), None)],
        [("eq", 0, 1)],
    )
    assert built._addr_eq == {(0, 1): Circuit.FALSE}
    assert (3, 5) not in built.circuit._xor_cache


def test_a_complementary_bit_pair_ends_a_comparison():
    built = _single(
        [((2, 2, 4), (), None), ((3, -3, 5), (), None)], [("eq", 0, 1)]
    )
    assert built._addr_eq == {(0, 1): Circuit.FALSE}
    assert (2, 3) in built.circuit._xor_cache
    assert (4, 5) not in built.circuit._xor_cache


def test_duplicate_bit_pairs_make_one_conjunct():
    built = _single(
        [((2, 2), (), None), ((3, 3), (), None)], [("eq", 0, 1)]
    )
    xor = built.circuit._xor_cache[2, 3]
    assert built._addr_eq == {(0, 1): -xor}
    assert built.circuit._and_cache == {}


def test_every_initial_value_kind_is_installed():
    """A constant, a zeroed heap cell, a fresh value with a domain and an
    unconstrained one; the fresh ones are named as the lazy path names
    them."""
    built = _single([((2, 3, 4), (5, 6), None)], [("init", 0)], 5)
    values = built._initial_values
    assert list(values) == [1, 2, 3, 4]
    assert values[1] == BitVec((1, 1)) and values[2] == BitVec((-1, -1))
    names = built.circuit.cnf.names
    for location in (3, 4):
        first, second = values[location].bits
        assert names[first] == f"init_loc{location}.0"
        assert names[second] == f"init_loc{location}.1"


def test_a_constant_initial_value_too_wide_raises():
    scenario = (2, {1: 4}, {}, [], 2, [((2, 3), (2,), None)], [], [])
    context, accesses = _scenario_context(scenario)
    for batch in (False, True):
        with pytest.raises(EncodingError, match="does not fit in 2 bits"):
            terms = SharedTermBatch(context, accesses) if batch else context
            terms.initial_value_term(accesses[0])


def test_a_location_wider_than_the_address_raises():
    context, accesses = _scenario_context(
        (*_LOCATIONS, 2, [((2,), (3,), [3])], [], [])
    )
    with pytest.raises(ValueError, match="does not fit in 1 bits"):
        SharedTermBatch(context, accesses).initial_value_term(accesses[0])


# ------------------------------------------------------------ the binding


def _descriptor(and_gates=(), xor_gates=(), accesses=(), initials=(),
                requests=()) -> array:
    """A ``terms.c`` descriptor from its sections."""
    and_gates, xor_gates = list(and_gates), list(xor_gates)
    sections = [
        [len(key) for key, _ in and_gates],
        [op for key, _ in and_gates for op in key],
        [out for _, out in and_gates],
        [op for key, _ in xor_gates for op in key],
        [out for _, out in xor_gates],
        list(accesses), list(initials), list(requests),
    ]
    header = [len(and_gates), len(sections[1]), len(xor_gates),
              len(accesses), len(initials), len(requests)]
    return array("i", [*header, *(x for part in sections for x in part)])


#: Two accesses over variables 2..5, a constant and a fresh initial value.
_ACCESSES = (2, 2, 3, 1, 4, 2, 3, -2, 1, 5)
_INITIALS = (0, 1, 1, 1, 1, 2, 0, 1)


def _build(descriptor, first_var=6):
    return native.build_terms(descriptor, first_var, 0)


def test_the_well_formed_descriptor_builds():
    built = _build(_descriptor(
        and_gates=[((-3, 2), 9)], xor_gates=[((2, 3), 10)],
        accesses=_ACCESSES, initials=_INITIALS,
        requests=(0, 0, 1, 1, 1, 2, 1, 0, 2, 1),
    ), first_var=11)
    # addr(0) = (2, 3), addr(1) = (3, -2): bit 0 is xor(2, 3) = 10 (in the
    # hash), bit 1 xor(3, -2) = -10, complementary: the comparison is
    # FALSE and mints nothing.  Load 1's term at location 1 ANDs (2, 3)
    # into 11 and (5, 11) into 12; at location 2, (-3, -2) into 13, the
    # fresh initial value is 14 (its domain {0, 1} is the unit clause
    # TRUE), xor(5, 14) is 15 and (-15, 13) into 16; the OR is -AND(-16,
    # -12) = -17.
    assert built.results.tolist() == [Circuit.FALSE, -17]
    assert built.minted.tolist() == [14]
    assert built.next_var == 18
    assert built.and_lengths.tolist() == [2] * 5
    assert built.and_outputs.tolist() == [11, 12, 13, 16, 17]
    assert built.xor_operands.tolist() == [5, 14]
    assert built.xor_outputs.tolist() == [15]
    assert list(built.ends) == sorted(built.ends)
    assert built.ends[-1] == len(built.literals)
    assert [1] == built.literals[
        built.ends[8]:built.ends[9]
    ].tolist()  # after the three clauses each of gates 11, 12 and 13


@pytest.mark.parametrize("descriptor", [
    array("i", [0, 0, 0, 0]),  # a header cut short
    _descriptor(accesses=_ACCESSES, requests=(0, 0, 2)),  # no access 2
    _descriptor(accesses=_ACCESSES, requests=(0, -1, 1)),
    _descriptor(accesses=_ACCESSES, requests=(0, 0)),  # a record cut short
    _descriptor(accesses=_ACCESSES, requests=(2, 0, 1)),  # no such request
    _descriptor(accesses=_ACCESSES, initials=_INITIALS,
                requests=(1, 0, 2, 1, 0)),  # two locations, one given
    _descriptor(accesses=_ACCESSES, initials=_INITIALS,
                requests=(1, 2, 1, 1, 0)),  # a load index out of range
    _descriptor(accesses=_ACCESSES, initials=_INITIALS,
                requests=(1, 0, 1, 1, 2)),  # no slot 2
    _descriptor(accesses=_ACCESSES, initials=_INITIALS,
                requests=(1, 0, 1, 4, 0)),  # location 4 in a 2-bit address
    _descriptor(accesses=(2, 2, 3, 3, 4)),  # a bit count past the end
    _descriptor(accesses=(2, 2, 0, 0)),  # a zero literal
    _descriptor(accesses=(2, 2, 6, 0)),  # variable 6 is not allocated
    _descriptor(initials=(1, 2, 1, 4)),  # a domain value past the width
    _descriptor(initials=(1, 2, 3, 0, 1)),  # a domain count past the end
    _descriptor(initials=(2, 1, 1)),  # no such initial value kind
    _descriptor(and_gates=[((2, 3), 4)])[:-1],  # sections cut short
    array("i", [1, 2, 0, 0, 0, 0, 3, 2, 3, 4]),  # an operand count past
    # the operand section
])
def test_a_malformed_descriptor_is_rejected(descriptor):
    with pytest.raises(ValueError, match="descriptor"):
        _build(descriptor)


@pytest.mark.parametrize("first_var", [2**31 - 1, 2**31])
def test_variables_past_32_bits_are_rejected(first_var):
    """The comparison of two single-variable addresses mints one XOR
    output: from 2**31 - 1 it fits, from 2**31 it cannot."""
    descriptor = _descriptor(accesses=(1, 2, 0, 1, 3, 0), requests=(0, 0, 1))
    if first_var < 2**31:
        built = _build(descriptor, first_var)
        assert built.next_var == 2**31
        # A fresh two-bit initial value needs two more.
        descriptor = _descriptor(
            accesses=(1, 2, 0), initials=(1, 2, 0), requests=(1, 0, 1, 1, 0)
        )
    with pytest.raises(ValueError, match="2\\*\\*31"):
        _build(descriptor, first_var)


@pytest.mark.parametrize("failing", [None, "copy"])
def test_the_build_is_freed_on_every_path(monkeypatch, failing):
    """A build the library returned is freed whether copying it out
    succeeds or raises; a build that fails frees itself in C (see
    ``test_running_out_of_memory_raises_memory_error``)."""
    lib = native.load()
    freed = []
    free = lib.cf_terms_free

    def counting_free(handle):
        freed.append(handle)
        free(handle)

    def broken_copy(*args):
        raise RuntimeError("copy failed")

    monkeypatch.setattr(lib, "cf_terms_free", counting_free)
    if failing:
        monkeypatch.setattr(lib, "cf_terms_copy", broken_copy)
    compiled = _compile("msn", "T0")
    if failing is None:
        build_skeleton(compiled)
    else:
        with pytest.raises(RuntimeError, match="copy failed"):
            build_skeleton(compiled)
    assert len(freed) == 1 and freed[0]


_OUT_OF_MEMORY = textwrap.dedent("""
    import resource
    from array import array
    from repro.sat import native

    def descriptor(width):
        # Two accesses whose addresses are ``width`` distinct variables
        # each, and the one comparison of them: ``width`` XOR gates.
        first = [width, *range(2, 2 + width), 0]
        second = [width, *range(2 + width, 2 + 2 * width), 0]
        accesses = first + second
        return array("i", [0, 0, 0, len(accesses), 0, 3, *accesses, 0, 0, 1])

    native.load()
    big = descriptor(1 << 20)
    with open("/proc/self/statm") as statm:
        mapped = int(statm.read().split()[0]) * resource.getpagesize()
    soft, hard = resource.getrlimit(resource.RLIMIT_AS)
    resource.setrlimit(resource.RLIMIT_AS, (mapped + (32 << 20), hard))
    failures = 0
    for _ in range(3):
        try:
            native.build_terms(big, 2 + 2 * (1 << 20), 0)
        except MemoryError as exc:
            failures += 1
            message = str(exc)
    resource.setrlimit(resource.RLIMIT_AS, (soft, hard))
    built = native.build_terms(descriptor(4), 10, 0)
    print(failures, message, len(built.xor_outputs))
""")


def test_running_out_of_memory_raises_memory_error(src_on_subprocess_path):
    """Under an address-space cap a million-gate batch cannot allocate its
    output; each try raises MemoryError, and the library still builds
    afterwards."""
    run = subprocess.run(
        [sys.executable, "-c", _OUT_OF_MEMORY],
        capture_output=True, text=True, timeout=120,
    )
    assert run.returncode == 0, run.stderr
    assert run.stdout.split() == [
        "3", "shared-term", "builder:", "out", "of", "memory", "4",
    ]
