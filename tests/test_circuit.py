"""Circuit IR: metrics, composition, peephole, and serialization."""
import dataclasses
import json
import io
import math
import re
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import (dense_circuit_matrix, gate_key, rand_state, random_circuit,
                      reference_depth, reference_gate_counts, reference_peephole,
                      reference_ucr_cascade)
from fsl import circuit as cir
from fsl import simulator
from fsl.circuit import (CODES, Circuit, Gate, GateKind, cnot, compose, cphase, depth,
                         export_qasm, from_json, gate_counts, h,
                         peephole_cancel_cnots, permutation_to_swaps, phase, ry, rz,
                         swap, to_json, x)
from fsl.synth import ANGLE_EPS, build_ucr_circuit, mottonen_angles


class TestGateValidation:
    def test_duplicate_qubits_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            cnot(1, 1)

    def test_angle_must_be_finite(self):
        with pytest.raises(ValueError, match="finite"):
            ry(float("nan"), 0)

    def test_angles_stored_unreduced(self):
        g = ry(7 * math.pi, 0)
        assert g.angle == 7 * math.pi

    @pytest.mark.parametrize("position", [0, 2, 4])
    @pytest.mark.parametrize("wire", [-1, 3])
    def test_gate_indices_inside_register(self, wire, position):
        gates = [h(0), cnot(0, 1), ry(0.5, 2), swap(1, 2), h(2)]
        gates[position] = cnot(1, wire)
        gates.append(h(wire))  # a later offender must not be the one named
        with pytest.raises(ValueError) as err:
            Circuit(3, tuple(gates))
        assert str(err.value) == f"gate GateKind.CNOT on (1, {wire}) outside 3 qubits"

    def test_invalid_permutation(self):
        with pytest.raises(ValueError, match="permutation"):
            Circuit(2, (), (0, 0))

    def test_kind_given_by_value_is_its_row(self):
        g = Gate("RY", (0,), 0.5)
        assert g.kind is GateKind.RY and g == ry(0.5, 0)
        with pytest.raises(ValueError, match="takes no angle"):
            Gate("CNOT", (0, 1), 0.5)

    @pytest.mark.parametrize("extra", [{"matrix": np.eye(4)}, {"label": "U"}])
    def test_plain_kind_takes_no_matrix_or_label(self, extra):
        # the columns, the simulator and the writers would drop either
        with pytest.raises(TypeError, match="unexpected keyword argument"):
            Gate(GateKind.CNOT, (0, 1), **extra)


    def test_fields_are_kind_wires_and_angle(self):
        # the stand-in matrix and label are class attributes, alike on every gate
        assert [f.name for f in dataclasses.fields(Gate)] == ["kind", "qubits", "angle"]
        for g in (h(0), x(1), ry(0.5, 0), rz(0.5, 0), phase(0.5, 0), cnot(0, 1),
                  cphase(0.5, 0, 1), swap(0, 1)):
            assert g.matrix is None and g.label == "" and "matrix" not in vars(g)


class TestGateIdentity:
    """Gates compare and hash by kind, wires and angle."""

    def test_circuits_with_equal_gates_are_equal(self):
        a = Circuit(2, (ry(0.5, 0), cnot(0, 1)))
        b = Circuit(2, (Gate("RY", [0], 0.5), Gate("CNOT", (0, 1))))
        assert a == b and hash(a) == hash(b)
        assert len({a, b, Circuit(2, (ry(0.5, 0), cnot(1, 0)))}) == 2

    def test_gates_differ_by_kind_wires_and_angle(self):
        assert cnot(0, 1) != cnot(1, 0) and h(0) != x(0)
        assert Circuit(1, (h(0),)) != Circuit(1, (x(0),))
        assert ry(0.5, 0) != ry(0.25, 0) and ry(0.5, 0) != rz(0.5, 0)
        assert hash(ry(0.0, 0)) == hash(ry(-0.0, 0)) and ry(0.0, 0) == ry(-0.0, 0)

    def test_gate_and_circuit_do_not_equal_other_types(self):
        assert ry(0.5, 0) != (GateKind.RY, (0,), 0.5)
        assert Circuit(1) != 5 and not Circuit(1) == 5


class TestDepth:
    def test_empty_circuit(self):
        assert depth(Circuit(2)) == 0

    def test_disjoint_supports_share_a_layer(self):
        assert depth(Circuit(4, (cnot(0, 1), cnot(2, 3)))) == 1

    def test_chained_gates_stack(self):
        assert depth(Circuit(2, (h(0), cnot(0, 1), h(1)))) == 3

    def test_swap_occupies_both_its_wires(self):
        # the SWAP waits for H(0) and CNOT(1, 2); H(3) and CNOT(1, 3) do not wait for it
        c = Circuit(4, (h(0), cnot(1, 2), swap(0, 2), h(3), cnot(1, 3), h(2)))
        assert depth(c) == 3

    @given(st.integers(0, 40), st.integers(0, 40), st.integers(0, 2**31 - 1))
    @settings(max_examples=25, deadline=None)
    def test_monotone_under_concatenation(self, la, lb, seed):
        rng = np.random.default_rng(seed)
        a = random_circuit(rng, 4, la)
        b = random_circuit(rng, 4, lb)
        assert depth(compose(a, b)) <= depth(a) + depth(b)


    @given(st.integers(0, 2**31 - 1), st.integers(2, 6), st.integers(0, 60))
    @settings(max_examples=60, deadline=None)
    def test_equals_generic_reference(self, seed, n, num_gates):
        c = random_circuit(np.random.default_rng(seed), n, num_gates)
        busy_until = [0] * n
        want = 0
        for g in c.gates:
            layer = 1 + max(busy_until[q] for q in g.qubits)
            for q in g.qubits:
                busy_until[q] = layer
            want = max(want, layer)
        assert depth(c) == want


class TestGateCounts:
    def test_empty(self):
        counts = gate_counts(Circuit(1))
        assert counts.single_qubit == counts.two_qubit == counts.opaque == 0

    def test_h_plus_cnot(self):
        counts = gate_counts(Circuit(2, (h(0), cnot(0, 1))))
        assert (counts.single_qubit, counts.two_qubit) == (1, 1)
        assert counts.by_kind == {"H": 1, "CNOT": 1}

    @pytest.mark.parametrize("seed", range(5))
    def test_partition_sums_to_total(self, seed):
        c = random_circuit(np.random.default_rng(seed), 4, 60)
        counts = gate_counts(c)
        assert counts.single_qubit + counts.two_qubit == len(c.gates) and counts.opaque == 0
        by_kind = {}
        for g in c.gates:
            by_kind[g.kind.value] = by_kind.get(g.kind.value, 0) + 1
        assert counts.single_qubit == sum(len(g.qubits) == 1 for g in c.gates)
        assert counts.two_qubit == sum(len(g.qubits) == 2 for g in c.gates)
        assert list(counts.by_kind.items()) == list(by_kind.items())  # first-seen order


class TestCompose:
    def test_matches_dense_oracle_with_permutations(self, rng):
        a = random_circuit(rng, 3, 10, random_perm=True)
        b = random_circuit(rng, 3, 10, random_perm=True)
        want = dense_circuit_matrix(b) @ dense_circuit_matrix(a)
        assert np.allclose(dense_circuit_matrix(compose(a, b)), want, atol=1e-12)

    def test_width_mismatch_rejected(self):
        with pytest.raises(ValueError, match="qubit count mismatch"):
            compose(Circuit(2, (h(0),)), Circuit(3, (h(2),)))


@st.composite
def cnot_dense_circuits(draw):
    """Circuits of 2-5 wires made mostly of CNOTs drawn from a pool of at most
    four (control, target) pairs, often in runs of 2-4 identical ones, with
    single-qubit gates, CPHASEs and SWAPs on shared or other wires in between,
    and any output permutation."""
    n = draw(st.integers(2, 5))
    wire = st.integers(0, n - 1)
    pairs = st.tuples(wire, wire).filter(lambda p: p[0] != p[1])
    pool = draw(st.lists(pairs, min_size=1, max_size=4))
    gates = []
    for _ in range(draw(st.integers(0, 40))):
        pick = draw(st.integers(0, 11))
        if pick < 8:
            gates += [cnot(*draw(st.sampled_from(pool)))] * draw(st.sampled_from([1, 1, 2, 3, 4]))
        elif pick == 8:
            gates.append(h(draw(wire)))
        elif pick == 9:
            gates.append(rz(0.25, draw(wire)))
        elif pick == 10:
            gates.append(cphase(0.5, *draw(pairs)))
        else:
            gates.append(swap(*draw(pairs)))
    return Circuit(n, tuple(gates), tuple(draw(st.permutations(range(n)))))


class TestPeephole:
    def test_adjacent_identical_cnots_cancel(self):
        c = Circuit(2, (cnot(0, 1), cnot(0, 1)))
        assert peephole_cancel_cnots(c).gates == ()

    def test_cascaded_cancellation(self):
        c = Circuit(2, (cnot(0, 1), cnot(0, 1), cnot(0, 1), cnot(0, 1)))
        assert peephole_cancel_cnots(c).gates == ()

    def test_intervening_gate_blocks_cancellation(self):
        c = Circuit(2, (cnot(0, 1), rz(0.1, 1), cnot(0, 1)))
        assert len(peephole_cancel_cnots(c).gates) == 3

    def test_swap_on_the_pair_blocks_cancellation(self):
        c = Circuit(3, (cnot(0, 1), swap(1, 0), cnot(0, 1), swap(2, 0), cnot(2, 1), cnot(2, 1)))
        assert [gate_key(g) for g in peephole_cancel_cnots(c).gates] == \
            [gate_key(g) for g in c.gates[:4]]

    def test_spectator_gate_does_not_block(self):
        c = Circuit(3, (cnot(0, 1), h(2), cnot(0, 1)))
        assert len(peephole_cancel_cnots(c).gates) == 1

    def test_uncovered_pair_waits_for_the_next_sweep(self):
        # the second CNOT(0,1) is next to the third from the start, and next to
        # the first only once the CNOT(1,2) pair is gone; adjacent pairs go
        # first, so the first copy is the one kept, ahead of h(3)
        x, y = cnot(0, 1), cnot(1, 2)
        c = Circuit(4, (x, y, y, x, h(3), x))
        assert [gate_key(g) for g in peephole_cancel_cnots(c).gates] == \
            [gate_key(g) for g in (x, h(3))]

    @given(cnot_dense_circuits())
    @example(Circuit(3, (cnot(0, 1), cnot(1, 2), cnot(0, 1), cnot(0, 1), cnot(1, 2), cnot(0, 1))))
    @example(Circuit(2, (cnot(0, 1),) * 5 + (cnot(1, 0),) * 3 + (cnot(0, 1),) * 2))
    @settings(max_examples=400, deadline=None)
    def test_equals_fixed_point_reference(self, c):
        got = peephole_cancel_cnots(c)
        want = reference_peephole(c)
        assert [gate_key(g) for g in got.gates] == [gate_key(g) for g in want.gates]
        assert (got.num_qubits, got.output_permutation) == (want.num_qubits, want.output_permutation)

    def test_preserves_semantics(self, rng):
        gates = []
        for _ in range(30):
            gates.append(cnot(int(rng.integers(2)), 2))
            if rng.random() < 0.4:
                gates.append(ry(float(rng.uniform(-1, 1)), int(rng.integers(3))))
        c = Circuit(3, tuple(gates))
        assert np.allclose(dense_circuit_matrix(c),
                           dense_circuit_matrix(peephole_cancel_cnots(c)), atol=1e-12)


# ---------------------------------------------------------------------------
# Serialization

def parse_qasm_reference(text: str):
    """Independent minimal OpenQASM 2 reader used to cross-check the emitter."""
    lines = text.strip().split("\n")
    assert lines[0] == "OPENQASM 2.0;"
    assert lines[1] == 'include "qelib1.inc";'
    m = re.fullmatch(r"qreg (\w+)\[(\d+)\];", lines[2])
    assert m
    num_qubits = int(m.group(2))
    gates = []
    for line in lines[3:]:
        m = re.fullmatch(r"(\w+)(?:\(([^)]+)\))? ((?:\w+\[\d+\],?)+);", line)
        assert m, f"unparseable line: {line!r}"
        name, angle, args = m.group(1), m.group(2), m.group(3)
        qubits = tuple(int(x) for x in re.findall(r"\[(\d+)\]", args))
        gates.append((name, qubits, float(angle) if angle else None))
    return num_qubits, gates


QASM_NAME = {GateKind.H: "h", GateKind.X: "x", GateKind.RY: "ry", GateKind.RZ: "rz",
             GateKind.PHASE: "u1", GateKind.CNOT: "cx", GateKind.CPHASE: "cp",
             GateKind.SWAP: "swap"}


ANGLES = st.one_of(
    st.sampled_from([0.0, -0.0, 5e-324, -2.5e-310, 1e300, -1e300, 1 / 3]),
    st.floats(allow_nan=False, allow_infinity=False))
TWO_QUBIT = {GateKind.CNOT, GateKind.CPHASE, GateKind.SWAP}
ANGLED = {GateKind.RY, GateKind.RZ, GateKind.PHASE, GateKind.CPHASE}


@st.composite
def json_circuits(draw):
    """Circuits of 0-4 qubits with any gates, edge-case angles and any output
    permutation."""
    n = draw(st.integers(0, 4))
    kinds = [k for k in GateKind if n >= 2 or k not in TWO_QUBIT]
    gates = []
    for _ in range(draw(st.integers(0, 8)) if n else 0):
        kind = draw(st.sampled_from(kinds))
        qubits = draw(st.permutations(range(n)))[: 2 if kind in TWO_QUBIT else 1]
        gates.append(Gate(kind, tuple(qubits), draw(ANGLES) if kind in ANGLED else None))
    return Circuit(n, tuple(gates), tuple(draw(st.permutations(range(n)))))


def block_edge_circuit(num_gates: int, angled_at=(), perm=None) -> Circuit:
    """``num_gates`` alternating CNOT and H gates on 3 wires, with an RY of a
    17-digit angle at each index in ``angled_at``."""
    def gate(i):
        if i in angled_at:
            return ry(i / 3, i % 3)
        return h(i % 3) if i % 2 else cnot(i % 3, (i + 1) % 3)
    return Circuit(3, [gate(i) for i in range(num_gates)], perm)


BLOCK = cir._BLOCK
BLOCK_EDGES = {
    "no-gates": block_edge_circuit(0),
    "one-block": block_edge_circuit(BLOCK),
    "one-block-plus-one": block_edge_circuit(BLOCK + 1),
    "angled-first-and-last-of-blocks": block_edge_circuit(
        2 * BLOCK, angled_at={0, BLOCK - 1, BLOCK, 2 * BLOCK - 1}),
    "permuted": block_edge_circuit(BLOCK + 1, angled_at={BLOCK}, perm=(2, 0, 1)),
}


def block_edge_examples(test):
    """``test`` with each ``BLOCK_EDGES`` circuit as an explicit example."""
    for c in BLOCK_EDGES.values():
        test = example(c)(test)
    return test


def reference_export_qasm(c: Circuit) -> str:
    """The generic writer ``export_qasm`` replaced: every gate's name, wires and
    angle formatted afresh."""
    lines = ['OPENQASM 2.0;', 'include "qelib1.inc";', f"qreg q[{c.num_qubits}];"]
    for g in c.gates:
        name = QASM_NAME[g.kind]
        args = ",".join(f"q[{q}]" for q in g.qubits)
        if g.kind in ANGLED:
            lines.append(f"{name}({cir._fmt(g.angle)}) {args};")
        else:
            lines.append(f"{name} {args};")
    if c.output_permutation != tuple(range(c.num_qubits)):
        for a, b in permutation_to_swaps(c.output_permutation):
            lines.append(f"swap q[{a}],q[{b}];")
    return "\n".join(lines) + "\n"


class TestQasmExport:
    def test_empty_circuit_is_header_only(self):
        assert export_qasm(Circuit(1)) == 'OPENQASM 2.0;\ninclude "qelib1.inc";\nqreg q[1];\n'

    def test_single_h(self):
        text = export_qasm(Circuit(1, (h(0),)))
        assert text.count("\nh q[0];") == 1

    @given(json_circuits())
    @example(Circuit(0))
    @example(Circuit(3, (cnot(0, 1), cnot(0, 1), cphase(0.5, 0, 1), cphase(-0.0, 0, 1),
                         cnot(1, 0), swap(0, 2), ry(1e300, 2), ry(5e-324, 2)), (2, 0, 1)))
    @block_edge_examples
    @settings(max_examples=200, deadline=None)
    def test_bytes_equal_reference_writer(self, c):
        assert export_qasm(c) == reference_export_qasm(c)

    def test_compiled_circuit_equals_reference_writer(self, rng):
        from fsl.compiler import FSLPlan, compile_spec, prepare_spec
        from fsl.fourier import GridFunction
        g = GridFunction.from_samples(rand_state(rng, 7))
        c, _ = compile_spec(prepare_spec(g, 4), FSLPlan(n=7, m=4))
        assert export_qasm(c) == reference_export_qasm(c)

    def test_byte_identical_across_runs(self, rng):
        c = random_circuit(rng, 4, 40)
        assert export_qasm(c) == export_qasm(c)

    def test_round_trip_through_reference_parser(self, rng):
        c = random_circuit(rng, 4, 40)
        nq, parsed = parse_qasm_reference(export_qasm(c))
        assert nq == 4
        assert len(parsed) == len(c.gates)
        for (name, qubits, angle), g in zip(parsed, c.gates):
            assert name == QASM_NAME[g.kind]
            assert qubits == g.qubits
            if g.angle is not None:
                assert angle == g.angle  # 17 significant digits round-trip exactly

    def test_compiled_fsl_circuit_round_trips(self, rng):
        # a real compiled artifact (non-identity permutation included) survives
        # the emit/reparse cycle with identical semantics
        from fsl.compiler import FSLPlan, compile_spec
        from fsl.fourier import GridFunction, dft_coefficients, truncate
        g = GridFunction.from_samples(rng.standard_normal(32) + 1j * rng.standard_normal(32))
        circ, _ = compile_spec(truncate(dft_coefficients(g), 2), FSLPlan(n=5, m=2))
        nq, parsed = parse_qasm_reference(export_qasm(circ))
        rebuilt = Circuit(nq, tuple(
            Gate({v: k for k, v in QASM_NAME.items()}[name], qubits, angle)
            for name, qubits, angle in parsed))
        got = simulator.run(rebuilt)
        want = simulator.run(circ)
        assert simulator.fidelity(got, want) >= 1 - 1e-12
        assert np.max(np.abs(got.amplitudes - want.amplitudes)) < 1e-12

    def test_permutation_materialized_as_swaps(self, rng):
        c = random_circuit(rng, 4, 20, random_perm=True)
        nq, parsed = parse_qasm_reference(export_qasm(c))
        gates = []
        for name, qubits, angle in parsed:
            kind = {v: k for k, v in QASM_NAME.items()}[name]
            gates.append(Gate(kind, qubits, angle))
        replayed = Circuit(nq, tuple(gates))  # identity permutation
        assert np.allclose(dense_circuit_matrix(replayed), dense_circuit_matrix(c), atol=1e-12)


class TestPermutationToSwaps:
    @pytest.mark.parametrize("seed", range(5))
    def test_swap_sequence_equals_permutation(self, seed):
        rng = np.random.default_rng(seed)
        n = 5
        perm = tuple(int(v) for v in rng.permutation(n))
        with_perm = Circuit(n, (), perm)
        gates = tuple(swap(a, b) for a, b in permutation_to_swaps(perm))
        materialized = Circuit(n, gates)
        assert np.allclose(dense_circuit_matrix(with_perm),
                           dense_circuit_matrix(materialized), atol=1e-12)


def reference_json_dict(c: Circuit) -> dict:
    """The per-``Gate`` dict ``to_json_dict`` replaced."""
    gates = []
    for g in c.gates:
        entry = {"kind": g.kind.value, "qubits": list(g.qubits)}
        if g.angle is not None:
            entry["angle"] = g.angle
        gates.append(entry)
    return {"num_qubits": c.num_qubits, "gates": gates,
            "output_permutation": list(c.output_permutation)}


def reference_to_json(c: Circuit) -> str:
    """The generic writer ``to_json`` replaced: ``json.dumps`` over the schema
    dict with every float swapped for its 17-digit text."""
    text = json.dumps(cir._tag_floats(reference_json_dict(c)), indent=2)
    return re.sub(r'"\\u0000f:([^"]*)"', r"\1", text)


class TestJson:
    @given(json_circuits())
    @example(Circuit(0))
    @example(Circuit(3, (), (2, 0, 1)))
    @example(Circuit(2, (phase(-0.0, 0), ry(5e-324, 1), rz(1e300, 0), cphase(0.0, 1, 0)), (1, 0)))
    @block_edge_examples
    @settings(max_examples=200, deadline=None)
    def test_bytes_equal_reference_writer(self, c):
        text = to_json(c)
        assert text == reference_to_json(c)
        assert json.loads(text) == cir.to_json_dict(c) == reference_json_dict(c)

    def test_compiled_circuit_equals_reference_writer(self, rng):
        from fsl.compiler import FSLPlan, compile_spec, prepare_spec
        from fsl.fourier import GridFunction
        g = GridFunction.from_samples(rand_state(rng, 7))
        c, _ = compile_spec(prepare_spec(g, 4), FSLPlan(n=7, m=4))
        assert c.output_permutation != tuple(range(c.num_qubits))
        assert to_json(c) == reference_to_json(c)

    def test_round_trip(self, rng):
        c = random_circuit(rng, 4, 30, random_perm=True)
        back = from_json(to_json(c))
        assert back.num_qubits == c.num_qubits
        assert back.output_permutation == c.output_permutation
        for g1, g2 in zip(back.gates, c.gates):
            assert (g1.kind, g1.qubits, g1.angle) == (g2.kind, g2.qubits, g2.angle)

    def test_schema_fields(self):
        d = json.loads(to_json(Circuit(2, (cphase(0.25, 0, 1), phase(0.5, 1)))))
        assert set(d) == {"num_qubits", "gates", "output_permutation"}
        assert d["gates"][0] == {"kind": "CPHASE", "qubits": [0, 1], "angle": 0.25}


class Discard:
    """A text stream that drops what it is given."""

    def write(self, text: str) -> None:
        pass


class TestBlockWriter:
    """``write_circuit`` is the one writer of both texts, block by block."""

    @given(json_circuits(), st.integers(1, 4))
    @example(BLOCK_EDGES["angled-first-and-last-of-blocks"], BLOCK)
    @settings(max_examples=100, deadline=None)
    def test_one_pass_writes_both_texts_at_any_block_size(self, c, block):
        json_out, qasm_out = io.StringIO(), io.StringIO()
        with mock.patch.object(cir, "_BLOCK", block):
            cir.write_circuit(c, json_out, qasm_out)
        assert json_out.getvalue() == reference_to_json(c)
        assert qasm_out.getvalue() == reference_export_qasm(c)

    def test_large_circuit_is_written_in_bounded_memory(self):
        # 131072 gates; a whole-text writer peaks near 30 MB here
        num_gates, ry_code, cnot_code = 1 << 17, CODES[GateKind.RY], CODES[GateKind.CNOT]
        wire = np.arange(num_gates) % 8
        is_ry = np.arange(num_gates) % 2 == 0
        rows = (np.where(is_ry, ry_code, cnot_code),
                np.stack([wire, np.where(is_ry, -1, (wire + 1) % 8)], axis=1),
                np.where(is_ry, np.random.default_rng(0).uniform(-7, 7, num_gates), math.nan))
        c = Circuit.join(8, [rows], (1, 0, 2, 3, 4, 5, 6, 7))
        tracemalloc.start()
        try:
            cir.write_circuit(c, Discard(), Discard())
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * 2**20


# ---------------------------------------------------------------------------
# Columns

@st.composite
def gate_lists(draw):
    """(n, gates, permutation) on 1-5 wires: every kind, edge-case angles
    (signed zeros, subnormals, huge), and a random output permutation."""
    n = draw(st.integers(1, 5))
    kinds = [k for k in GateKind if n >= 2 or k not in TWO_QUBIT]
    gates = []
    for _ in range(draw(st.integers(0, 14))):
        kind = draw(st.sampled_from(kinds))
        qubits = draw(st.permutations(range(n)))[: 2 if kind in TWO_QUBIT else 1]
        gates.append(Gate(kind, tuple(qubits), draw(ANGLES) if kind in ANGLED else None))
    return n, gates, tuple(draw(st.permutations(range(n))))


def from_columns(c: Circuit) -> Circuit:
    """A copy of ``c`` rebuilt from its columns alone, so nothing it holds
    comes from the ``Gate`` objects ``c`` was made from."""
    return Circuit.join(c.num_qubits, [c], c.output_permutation)


class TestColumns:
    """Every columnar consumer equals its per-``Gate`` reference."""

    @given(gate_lists())
    @example((3, [ry(-0.0, 0), rz(5e-324, 1), cphase(-2.5e-310, 0, 2), phase(0.0, 2)], (2, 0, 1)))
    @example((3, [cnot(0, 1), swap(2, 0), cnot(0, 1)], (0, 1, 2)))
    @settings(max_examples=150, deadline=None)
    def test_consumers_equal_per_gate_references(self, case):
        n, gates, perm = case
        c = Circuit(n, gates, perm)
        fresh = from_columns(c)
        assert "gates" not in vars(fresh)  # its Gate views are not built yet
        assert [gate_key(g) for g in fresh.gates] == [gate_key(g) for g in gates]
        assert [gate_key(g) for g in c.take(slice(None)).gates] == [gate_key(g) for g in gates]
        assert fresh == c and fresh.output_permutation == perm
        assert depth(fresh) == reference_depth(c)
        counts, want = gate_counts(fresh), reference_gate_counts(c)
        assert counts == want and list(counts.by_kind.items()) == list(want.by_kind.items())
        assert [gate_key(g) for g in peephole_cancel_cnots(fresh).gates] == \
            [gate_key(g) for g in reference_peephole(c).gates]
        assert to_json(fresh) == reference_to_json(c)
        assert export_qasm(fresh) == reference_export_qasm(c)
        state = simulator.run(fresh).amplitudes
        assert np.max(np.abs(state - dense_circuit_matrix(c)[:, 0])) < 1e-10

    def test_columns_hold_padding_and_nan(self):
        c = Circuit(4, (h(2), cnot(0, 3), swap(3, 0), ry(0.25, 1)))
        assert c.kinds.tolist() == [CODES[g.kind] for g in c.gates]
        assert c.wires.tolist() == [[2, -1], [0, 3], [3, 0], [1, -1]]
        assert np.isnan(c.angles[:3]).all() and c.angles[3] == 0.25
        with pytest.raises(ValueError):
            c.kinds[0] = 0  # the columns are read-only

    @pytest.mark.parametrize("q", range(1, 8))  # levels j = 0..q-1, RY and RZ, both walk orders
    def test_ucr_circuit_equals_per_gate_blocks(self, q):
        """The cascade equals the per-gate blocks with their cancelling CNOT
        pairs taken out: at each seam, and in a one-control block whose second
        rotation vanishes.  Neither input is a product at any cut, so each
        loads as one cascade.  From q = 3 the second has a wire-0 x wire-1
        mass that factorises and level-1 blocks whose phase means agree, so
        level 1's RY block keeps only its first rotation and its RZ block is
        empty: the seam has no CNOT to cancel the pair."""
        rng = np.random.default_rng(900 + q)
        sparse = rand_state(rng, q)
        sparse[rng.random(2**q) < 0.3] = 0.0  # empty blocks elide rotations
        marginal = rand_state(rng, q)
        if q > 2:
            mass = np.abs(marginal).reshape(2, 2, -1)
            mass /= np.linalg.norm(mass, axis=2, keepdims=True)
            mass *= np.sqrt(np.outer(*rng.dirichlet([1, 1], size=2)))[:, :, None]
            phases = rng.uniform(-1.0, 1.0, mass.shape)
            phases[:, 1] += (phases[:, 0].mean(axis=1) - phases[:, 1].mean(axis=1))[:, None]
            marginal = (mass * np.exp(1j * phases)).reshape(-1)
        for target in (sparse, marginal):
            target /= np.linalg.norm(target)
            for c in range(1, q):
                assert np.linalg.svd(target.reshape(2**c, -1), compute_uv=False)[1] > 1e-3
            wires = [int(w) for w in rng.permutation(q + 2)[:q]]
            if q > 2 and target is marginal:
                ang = mottonen_angles(target)
                assert abs(np.subtract(*ang.alpha_y[q - 2])) < ANGLE_EPS
                assert np.max(np.abs(ang.alpha_z[q - 2])) < ANGLE_EPS
            got = build_ucr_circuit(target, qubits=wires, num_qubits=q + 2)
            assert "gates" not in vars(got)
            assert [gate_key(g) for g in got.gates] == \
                [gate_key(g) for g in reference_ucr_cascade(target, wires, q + 2).gates]


def _entry(kind, qubits, angle="absent"):
    entry = {"kind": kind, "qubits": qubits}
    if angle != "absent":
        entry["angle"] = angle
    return entry


# (the faulty gate, the same gate as a JSON entry, the error both give)
MALFORMED = {
    "duplicate wire": (lambda: Gate(GateKind.CNOT, (1, 1)), _entry("CNOT", [1, 1]),
                       ValueError, "duplicate qubit in gate GateKind.CNOT: (1, 1)"),
    "two-wire kind on one": (lambda: Gate(GateKind.CNOT, (1,)), _entry("CNOT", [1]),
                             ValueError, "GateKind.CNOT expects 2 qubits, got (1,)"),
    "one-wire kind on two": (lambda: Gate(GateKind.H, (0, 1)), _entry("H", [0, 1]),
                             ValueError, "GateKind.H expects 1 qubits, got (0, 1)"),
    "nan angle": (lambda: Gate(GateKind.RY, (0,), math.nan), _entry("RY", [0], math.nan),
                  ValueError, "GateKind.RY requires a finite angle, got nan"),
    "inf angle": (lambda: Gate(GateKind.CPHASE, (0, 1), -math.inf),
                  _entry("CPHASE", [0, 1], -math.inf),
                  ValueError, "GateKind.CPHASE requires a finite angle, got -inf"),
    "missing angle": (lambda: Gate(GateKind.RZ, (2,)), _entry("RZ", [2]),
                      ValueError, "GateKind.RZ requires a finite angle, got None"),
    "angle on H": (lambda: Gate(GateKind.H, (0,), 0.5), _entry("H", [0], 0.5),
                   ValueError, "GateKind.H takes no angle"),
    "angle on X": (lambda: Gate(GateKind.X, (1,), 0.0), _entry("X", [1], 0.0),
                   ValueError, "GateKind.X takes no angle"),
    "angle on CNOT": (lambda: Gate(GateKind.CNOT, (0, 1), 1.5), _entry("CNOT", [0, 1], 1.5),
                      ValueError, "GateKind.CNOT takes no angle"),
    "angle on SWAP": (lambda: Gate(GateKind.SWAP, (2, 1), -2.0), _entry("SWAP", [2, 1], -2.0),
                      ValueError, "GateKind.SWAP takes no angle"),
    "wire above range": (lambda: Gate(GateKind.CNOT, (1, 3)), _entry("CNOT", [1, 3]),
                         ValueError, "gate GateKind.CNOT on (1, 3) outside 3 qubits"),
    "negative wire": (lambda: Gate(GateKind.H, (-1,)), _entry("H", [-1]),
                      ValueError, "gate GateKind.H on (-1,) outside 3 qubits"),
}


class TestMalformedGates:
    """The column checks raise what the per-gate checks raised, for the first
    faulty gate, whether the gates come as objects or as JSON."""

    @staticmethod
    def gates_around(gate):
        return [h(0), cnot(0, 2), gate, ry(0.5, 1)]

    @staticmethod
    def json_around(entry, perm=(0, 1, 2)):
        return json.dumps({"num_qubits": 3, "output_permutation": list(perm), "gates": [
            _entry("H", [0]), _entry("CNOT", [0, 2]), entry, _entry("RY", [1], 0.5)]})

    @pytest.mark.parametrize("name", sorted(MALFORMED))
    def test_gate_objects_and_json_raise_the_same(self, name):
        make, entry, kind, message = MALFORMED[name]
        with pytest.raises(kind) as err:
            Circuit(3, self.gates_around(make()))
        assert str(err.value) == message
        with pytest.raises(kind) as err:
            from_json(self.json_around(entry))
        assert str(err.value) == message

    def test_unknown_kind(self):
        with pytest.raises(KeyError, match="TOFFOLI"):
            Circuit(3, self.gates_around(Gate("TOFFOLI", (0, 1, 2))))
        with pytest.raises(ValueError) as err:
            from_json(self.json_around(_entry("TOFFOLI", [0, 1, 2])))
        assert str(err.value) == "'TOFFOLI' is not a valid GateKind"

    @pytest.mark.parametrize("perm, gates, message", [
        ([0, 0, 1], [_entry("CNOT", [0, 5]), _entry("RZ", [1]), _entry("CNOT", [2, 2])],
         "GateKind.RZ requires a finite angle, got None"),
        ([0, 0, 1], [_entry("CNOT", [0, 5]), _entry("RZ", [1], 1.5)],
         "invalid output permutation (0, 0, 1)"),
        ([0, 1, 2], [_entry("RZ", [1], 1.5), _entry("CNOT", [0, 5]), _entry("H", [7])],
         "gate GateKind.CNOT on (0, 5) outside 3 qubits"),
        ([0, 1, 2], [_entry("CNOT", [2, 2]), _entry("FOO", [1])],
         "duplicate qubit in gate GateKind.CNOT: (2, 2)"),
        ([0, 1, 2], [_entry("FOO", [1]), {"kind": "H"}],  # a later entry lacks its qubits
         "'FOO' is not a valid GateKind"),
        ([0, 1, 2], [_entry("RZ", [1], 1.5), _entry("OPAQUE_UNITARY", [0])],  # a retired kind
         "'OPAQUE_UNITARY' is not a valid GateKind"),
    ])
    def test_faults_are_found_in_the_per_gate_order(self, perm, gates, message):
        # gate faults first, in gate order, then the permutation, then the wire
        # range: the order of building every Gate and then their Circuit
        text = json.dumps({"num_qubits": 3, "output_permutation": perm, "gates": gates})
        with pytest.raises(ValueError) as err:
            from_json(text)
        assert str(err.value) == message

    @pytest.mark.parametrize("rows, message", [
        (([CODES[GateKind.RY]], [(0, -1)], [math.nan]), "GateKind.RY requires a finite angle, got None"),
        (([CODES[GateKind.H]], [(0, 2)], [math.nan]), "GateKind.H expects 1 qubits, got (0, 2)"),
        (([CODES[GateKind.SWAP]], [(1, 1)], [math.nan]), "duplicate qubit in gate GateKind.SWAP: (1, 1)"),
        (([CODES[GateKind.X]], [(4, -1)], [math.nan]), "gate GateKind.X on (4,) outside 3 qubits"),
        (([8], [(0, -1)], [math.nan]),  # the retired opaque kind's code
         "gate row 1 (kind code 8, wires [0, -1]) is malformed"),
        (([200], [(0, -1)], [math.nan]), "gate row 1 (kind code 200, wires [0, -1]) is malformed"),
    ])
    def test_row_blocks_are_checked(self, rows, message):
        with pytest.raises(ValueError) as err:
            Circuit.join(3, [([CODES[GateKind.H]], [(2, -1)], [math.nan]), rows])
        assert str(err.value) == message
