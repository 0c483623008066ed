import numpy as np
import pytest

from bellselftest import hardy, tree
from bellselftest.tree import (
    CoveringTree,
    MaximallyEntangledError,
    QuditProtocol,
    SchmidtVector,
    build_tree,
    compressed_groups,
    protocol_of,
    root_path,
    validate_tree,
)

FIG2 = np.array([1 / 6, 1 / 8, 1 / 6, 1 / 6, 1 / 8, 1 / 4])


def path_tree(c: SchmidtVector) -> CoveringTree:
    """Path 0-1-...-d-1; valid when consecutive coefficients differ, which is
    the generic all-distinct case where two compressed groups suffice."""
    edges = tuple((k, k + 1) for k in range(c.d - 1))
    t = CoveringTree(d=c.d, edges=edges, root=0)
    ok, diag = validate_tree(t, c)
    if not ok:
        raise ValueError(f"path tree invalid for these coefficients: {diag}")
    return t


class TestBuildTree:
    def test_figure2_recipe(self):
        t = build_tree(SchmidtVector(FIG2))
        assert set(t.edges) == {(0, 1), (0, 4), (0, 5), (1, 2), (1, 3)}
        assert t.root == 0
        assert t.edges == ((0, 1), (0, 4), (0, 5), (1, 2), (1, 3))

    def test_qubit_single_edge(self):
        t = build_tree(SchmidtVector(np.array([np.cos(0.3), np.sin(0.3)])))
        assert t.edges == ((0, 1),)

    def test_equal_leading_pair_reordered(self):
        t = build_tree(SchmidtVector(np.array([2.0, 2.0, 1.0])))
        assert set(map(frozenset, t.edges)) == {frozenset({0, 2}), frozenset({2, 1})}

    def test_maximally_entangled_rejected(self):
        with pytest.raises(MaximallyEntangledError):
            build_tree(SchmidtVector(np.ones(4)))

    def test_random_properties(self):
        rng = np.random.default_rng(17)
        for _ in range(500):
            d = int(rng.integers(2, 11))
            c = SchmidtVector(rng.uniform(0.2, 2.0, size=d))
            try:
                t = build_tree(c)
            except MaximallyEntangledError:
                continue
            ok, diag = validate_tree(t, c)
            assert ok, diag
            assert len(t.edges) == d - 1
            covered = {v for e in t.edges for v in e}
            assert covered == set(range(d))


class TestValidateTree:
    def test_figure2_valid(self):
        c = SchmidtVector(FIG2)
        ok, diag = validate_tree(build_tree(c), c)
        assert ok and diag == "ok"

    def test_uncovered_vertex(self):
        c = SchmidtVector(FIG2[:4])
        t = CoveringTree(d=4, edges=((0, 1), (0, 1), (1, 2)), root=0)
        ok, diag = validate_tree(t, c)
        assert not ok and "uncovered vertex 3" in diag

    def test_homogeneous_edge(self):
        c = SchmidtVector(np.array([1.0, 1.0, 2.0]))
        t = CoveringTree(d=3, edges=((0, 1), (1, 2)), root=0)
        ok, diag = validate_tree(t, c)
        assert not ok and "homogeneous edge" in diag

    def test_disconnected(self):
        c = SchmidtVector(np.array([1.0, 2.0, 3.0, 4.0]))
        t = CoveringTree(d=4, edges=((0, 1), (2, 3), (3, 2)), root=0)
        ok, diag = validate_tree(t, c)
        assert not ok


class TestProtocolOf:
    def test_figure2_edge_parameters(self):
        c = SchmidtVector(FIG2)
        proto = protocol_of(c)
        norm2 = float(np.sum(FIG2 ** 2))
        by_edge = {e.edge: e for e in proto.per_edge}
        e05 = by_edge[(0, 5)]
        assert e05.p == pytest.approx((FIG2[0] ** 2 + FIG2[5] ** 2) / norm2, abs=1e-12)
        assert e05.theta == pytest.approx(np.arctan((1 / 6) / (1 / 4)), abs=1e-12)
        assert e05.swapped  # c_5 > c_0
        e01 = by_edge[(0, 1)]
        assert not e01.swapped
        assert e01.theta == pytest.approx(np.arctan((1 / 8) / (1 / 6)), abs=1e-12)
        for et in proto.per_edge:
            assert et.w == pytest.approx(hardy.w_of_theta(et.theta), abs=1e-12)

    def test_qubit_reduction(self):
        c = SchmidtVector(np.array([0.8, 0.6]))
        proto = protocol_of(c)
        assert len(proto.per_edge) == 1
        et = proto.per_edge[0]
        assert et.w == pytest.approx(hardy.w_of_theta(np.arctan(0.6 / 0.8)), abs=1e-12)

    def test_path_tree_two_groups(self):
        c = SchmidtVector(np.array([0.9, 0.7, 0.5, 0.3]))
        proto = protocol_of(c, tree=path_tree(c))
        assert [list(g) for g in proto.groups] == [[(0, 1), (2, 3)], [(1, 2)]]

    def test_generic_path_trees_have_two_groups(self):
        rng = np.random.default_rng(23)
        for _ in range(25):
            d = int(rng.integers(3, 9))
            vals = np.sort(rng.uniform(0.2, 2.0, size=d))[::-1]
            vals *= 1 + 0.01 * rng.standard_normal(d)  # keep distinct, perturbed
            c = SchmidtVector(np.abs(vals) + 0.05)
            proto = protocol_of(c, tree=path_tree(c))
            assert len(proto.groups) == 2

    def test_group_partition_invariants(self):
        c = SchmidtVector(FIG2)
        proto = protocol_of(c)
        all_edges = [e for g in proto.groups for e in g]
        assert sorted(all_edges) == sorted(proto.tree.edges)
        for g in proto.groups:
            seen = set()
            for (a, b) in g:
                assert a not in seen and b not in seen
                seen.update((a, b))

    def test_user_tree_validated(self):
        c = SchmidtVector(np.array([1.0, 1.0, 2.0]))
        bad = CoveringTree(d=3, edges=((0, 1), (1, 2)), root=0)
        with pytest.raises(ValueError):
            protocol_of(c, tree=bad)

    def test_per_edge_normalization_identity(self):
        c = SchmidtVector(FIG2)
        proto = protocol_of(c)
        for et in proto.per_edge:
            a, b = et.edge
            assert et.p == pytest.approx(
                float(c.coeffs[a] ** 2 + c.coeffs[b] ** 2), abs=1e-12)


class TestRootPath:
    def test_figure2_paths(self):
        t = build_tree(SchmidtVector(FIG2))
        assert root_path(t, 5) == [(0, 5)]
        assert root_path(t, 3) == [(0, 1), (1, 3)]
        assert root_path(t, 0) == []


class TestJsonRoundTrip:
    def test_protocol(self):
        proto = protocol_of(SchmidtVector(FIG2))
        obj = proto.to_json()
        assert obj["version"] == "protocol.v1"
        back = QuditProtocol.from_json(obj)
        assert back.tree.edges == proto.tree.edges
        assert np.allclose(back.coeffs, proto.coeffs)
        assert [e.w for e in back.per_edge] == [e.w for e in proto.per_edge]
        assert back.groups == proto.groups

    @pytest.mark.parametrize("field, minimum", [("d", 2), ("root", 0)])
    @pytest.mark.parametrize("value", [2.7, True, "2"], ids=["float", "bool", "string"])
    def test_protocol_rejects_non_integer_field(self, field, minimum, value):
        obj = {**protocol_of(SchmidtVector(FIG2)).to_json(), field: value}
        with pytest.raises(ValueError, match=f"^{field} must be an integer >= {minimum}"):
            QuditProtocol.from_json(obj)


    @pytest.mark.parametrize("field, value, message", [
        ("w", "0.5", "^w: '0.5' is not a number"),
        ("theta", True, "^theta: True is not a number"),
        ("p", None, "^p: None is not a number"),
        ("swapped", "false", "^swapped: 'false' is not a boolean"),
        ("swapped", 0, "^swapped: 0 is not a boolean"),
    ], ids=["w-string", "theta-bool", "p-null", "swapped-string", "swapped-int"])
    def test_protocol_rejects_mistyped_edge_field(self, field, value, message):
        obj = protocol_of(SchmidtVector(FIG2)).to_json()
        obj["perEdge"][1][field] = value
        with pytest.raises(ValueError, match=message):
            QuditProtocol.from_json(obj)

    @pytest.mark.parametrize("bad, kind", [("0.25", "str"), (True, "bool")],
                             ids=["string", "bool"])
    def test_protocol_rejects_non_number_coeff(self, bad, kind):
        obj = protocol_of(SchmidtVector(FIG2)).to_json()
        obj["coeffs"] = [float(v) for v in obj["coeffs"]]
        obj["coeffs"][2] = bad
        with pytest.raises(ValueError, match=rf"^coeffs entries must be numbers, got "
                                             rf"{kind} as coeffs entry at \[2\]"):
            QuditProtocol.from_json(obj)


class TestCompressedGroups:
    def test_star_gives_singletons(self):
        groups = compressed_groups([(0, 1), (0, 2), (0, 3)])
        assert groups == [[(0, 1)], [(0, 2)], [(0, 3)]]

    def test_largest_first(self):
        groups = compressed_groups([(0, 1), (0, 4), (0, 5), (1, 2), (1, 3)])
        assert [len(g) for g in groups] == [2, 2, 1]
        assert groups[0] == [(0, 4), (1, 2)]
