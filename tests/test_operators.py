import numpy as np
import pytest

from gea.genome import GeneDomain
from gea.operators import _ox_batch, _single_point_batch, crossover_batch, mutate_batch
from gea.rng import make_rng

BIN4 = GeneDomain.binary(4)
PERM5 = GeneDomain.permutation(5)


class TestSinglePoint:
    def test_cut_at_two(self, scripted_rng):
        c1, c2 = crossover_batch(BIN4, np.array([[0, 0, 0, 0]]), np.array([[1, 1, 1, 1]]),
                                 scripted_rng([2]))
        assert c1.tolist() == [[0, 0, 1, 1]]
        assert c2.tolist() == [[1, 1, 0, 0]]

    def test_identical_parents_yield_identical_children(self, scripted_rng):
        g = np.tile([1, 0, 1, 1], (3, 1))
        c1, c2 = crossover_batch(BIN4, g, g, scripted_rng([1, 2, 3]))
        assert np.array_equal(c1, g) and np.array_equal(c2, g)


def reference_single_point(p1, p2, cuts):
    """Reference single-point crossover: two `np.where`s on an int64 mask."""
    take_other = np.arange(p1.shape[1]) >= cuts[:, None]
    return np.where(take_other, p2, p1), np.where(take_other, p1, p2)


class TestSinglePointOracle:
    @pytest.mark.parametrize("dtype", [np.uint8, np.int64])
    @pytest.mark.parametrize("length", [2, 8, 255, 256, 300])
    def test_bit_equal_to_reference(self, length, dtype):
        rng = make_rng(length)
        m = 40
        info = np.iinfo(dtype)
        # any integer genes, not only 0/1: full-range values, negatives for int64
        p1 = rng.integers(info.min, info.max, size=(m, length), dtype=dtype, endpoint=True)
        p2 = rng.integers(info.min, info.max, size=(m, length), dtype=dtype, endpoint=True)
        p1[:5], p2[:5] = p1[:5] % 2, p2[:5] % 2
        cuts = rng.integers(1, length, size=m)
        cuts[:3], cuts[3:6] = 1, length - 1
        c1, c2 = _single_point_batch(p1, p2, cuts)
        e1, e2 = reference_single_point(p1, p2, cuts)
        assert c1.dtype == c2.dtype == e1.dtype == dtype
        assert np.array_equal(c1, e1) and np.array_equal(c2, e2)


class TestOrderCrossover:
    def test_hand_traced_example(self, scripted_rng):
        p1 = np.array([[1, 2, 3, 4, 5]])
        p2 = np.array([[5, 4, 3, 2, 1]])
        # segment ends drawn as 3 then 2: the segment is loci 2..3 either way
        c1, c2 = crossover_batch(PERM5, p1, p2, scripted_rng([3], [2]))
        # child keeps (.,.,3,4,.) and takes 5,2,1 in p2 order
        assert c1.tolist() == [[5, 2, 3, 4, 1]]
        assert c2.tolist() == [[1, 4, 3, 2, 5]]

    def test_identical_parents_identity(self, scripted_rng):
        g = np.tile([3, 1, 4, 2, 5], (4, 1))
        # segments (0, 0), (1, 3), (0, 4) and (4, 4), one per row
        c1, c2 = crossover_batch(PERM5, g, g, scripted_rng([0, 1, 0, 4], [0, 3, 4, 4]))
        assert np.array_equal(c1, g) and np.array_equal(c2, g)

    def test_closure_over_random_cases(self):
        # permutation invariant must survive 10^4 randomized crossovers
        rng = make_rng(11)
        dom = GeneDomain.permutation(7, separators=2)
        sorted_alphabet = dom.alphabet
        for _ in range(100):
            p1 = dom.sample_batch(rng, 100)
            p2 = dom.sample_batch(rng, 100)
            c1, c2 = crossover_batch(dom, p1, p2, rng)
            for batch in (c1, c2):
                assert np.array_equal(np.sort(batch, axis=1),
                                      np.tile(sorted_alphabet, (100, 1)))

    def test_binary_closure(self):
        rng = make_rng(5)
        dom = GeneDomain.binary(9)
        p1 = dom.sample_batch(rng, 10_000)
        p2 = dom.sample_batch(rng, 10_000)
        c1, c2 = crossover_batch(dom, p1, p2, rng)
        assert np.isin(c1, (0, 1)).all() and np.isin(c2, (0, 1)).all()
        # single point: prefix comes from p1, suffix from p2
        changed = c1 != p1
        assert (changed == (c2 != p2)).all()


def reference_ox(seg_parent, fill_parent, lo, hi):
    """2-D reference OX: an int64 (row, symbol) -> locus table of seg_parent
    tells which of fill_parent's symbols lie inside the segment."""
    m, length = seg_parent.shape
    pos = np.arange(length)
    in_segment = (pos >= lo[:, None]) & (pos <= hi[:, None])
    rows = np.arange(m)[:, None]
    symbol_pos = np.empty((m, length + 1), dtype=np.int64)
    symbol_pos[rows, seg_parent] = pos
    fill_pos = symbol_pos[rows, fill_parent]
    fill_in_segment = (fill_pos >= lo[:, None]) & (fill_pos <= hi[:, None])
    child = np.empty_like(seg_parent)
    child[in_segment] = seg_parent[in_segment]
    child[~in_segment] = fill_parent[~fill_in_segment]
    return child


class TestOxKernelOracle:
    @pytest.mark.parametrize("domain", [
        GeneDomain.permutation(2),
        GeneDomain.permutation(16, separators=4),
        GeneDomain.permutation(200, separators=9),
        GeneDomain.permutation(250, separators=5),  # L=255: uint8 positions
        GeneDomain.permutation(250, separators=6),  # L=256: uint16 positions
        GeneDomain.permutation(290, separators=10),  # 300 symbols: uint16 genes
    ], ids=lambda d: f"L{d.length}")
    def test_bit_equal_to_reference(self, domain):
        rng = make_rng(domain.length)
        m, length = 60, domain.length
        seg_parent, fill_parent = domain.sample_batch(rng, m), domain.sample_batch(rng, m)
        a, b = rng.integers(0, length, size=m), rng.integers(0, length, size=m)
        lo, hi = np.minimum(a, b), np.maximum(a, b)
        # one-locus segments, then whole-row segments
        hi[:10] = lo[:10]
        lo[10:20], hi[10:20] = 0, length - 1
        child = _ox_batch(seg_parent, fill_parent, lo, hi)
        expected = reference_ox(seg_parent, fill_parent, lo, hi)
        assert child.dtype == expected.dtype == domain.dtype
        assert np.array_equal(child, expected)
        assert np.array_equal(child[10:20], seg_parent[10:20])


class TestCrossoverWrapper:
    def test_single_pair_valid_children(self):
        rng = make_rng(0)
        p1, p2 = PERM5.sample_batch(rng, 1), PERM5.sample_batch(rng, 1)
        c1, c2 = crossover_batch(PERM5, p1, p2, rng)
        assert c1.shape == c2.shape == (1, 5)
        assert PERM5.contains(c1[0]) and PERM5.contains(c2[0])

    def test_mismatched_shapes_rejected(self):
        with pytest.raises(ValueError, match="shape"):
            crossover_batch(BIN4, np.zeros((2, 4), int), np.zeros((3, 4), int), make_rng(0))

    def test_wrong_length_rejected(self):
        with pytest.raises(ValueError, match="length"):
            crossover_batch(BIN4, np.zeros((2, 5), int), np.zeros((2, 5), int), make_rng(0))

    def test_length_one_binary_children_copy_parents(self):
        dom = GeneDomain.binary(1)
        c1, c2 = crossover_batch(dom, np.array([[0]]), np.array([[1]]), make_rng(0))
        assert c1.tolist() == [[0]] and c2.tolist() == [[1]]

    def test_determinism(self):
        p1, p2 = PERM5.sample_batch(make_rng(1), 3), PERM5.sample_batch(make_rng(2), 3)
        assert np.array_equal(crossover_batch(PERM5, p1, p2, make_rng(9))[0],
                              crossover_batch(PERM5, p1, p2, make_rng(9))[0])


class TestMutation:
    def test_flip_example(self, scripted_rng):
        out = mutate_batch(GeneDomain.binary(3), np.array([[1, 0, 1]]), scripted_rng([1]))
        assert out.tolist() == [[1, 1, 1]]

    def test_swap_example(self, scripted_rng):
        # the second locus is drawn from the other two: draw 1 >= 0 is locus 2
        out = mutate_batch(GeneDomain.permutation(3), np.array([[1, 2, 3]]),
                           scripted_rng([0], [1]))
        assert out.tolist() == [[3, 2, 1]]

    def test_length_one_binary_flips_the_only_gene(self):
        dom = GeneDomain.binary(1)
        assert mutate_batch(dom, np.array([[0]]), make_rng(0)).tolist() == [[1]]

    def test_binary_mutant_differs_in_exactly_one_locus(self):
        rng = make_rng(21)
        dom = GeneDomain.binary(8)
        genomes = dom.sample_batch(rng, 5000)
        mutants = mutate_batch(dom, genomes, rng)
        assert ((mutants != genomes).sum(axis=1) == 1).all()

    def test_swap_mutant_differs_in_exactly_two_loci(self):
        rng = make_rng(22)
        dom = GeneDomain.permutation(6, separators=1)
        genomes = dom.sample_batch(rng, 5000)
        mutants = mutate_batch(dom, genomes, rng)
        assert ((mutants != genomes).sum(axis=1) == 2).all()
        assert np.array_equal(np.sort(mutants, axis=1), np.sort(genomes, axis=1))

    def test_determinism(self):
        dom = GeneDomain.permutation(5)
        g = dom.sample_batch(make_rng(3), 4)
        assert np.array_equal(mutate_batch(dom, g, make_rng(7)), mutate_batch(dom, g, make_rng(7)))
