import numpy as np
import pytest

import gea.operators
from gea.genome import DomainKind, GeneDomain
from gea.operators import crossover_batch, mutate_batch, mutate_loci, recombine

BIN4 = GeneDomain.binary(4)
PERM5 = GeneDomain.permutation(5)


def cross(domain, parents1, parents2, rng):
    """`crossover_batch` on the pairs (parents1[i], parents2[i]), its
    pair-ordered children split into each pair's first and second child."""
    children = crossover_batch(domain, np.stack([parents1, parents2], axis=1), rng)
    return children[0::2], children[1::2]


class TestSinglePoint:
    def test_cut_at_two(self, scripted_rng):
        c1, c2 = cross(BIN4, np.array([[0, 0, 0, 0]]), np.array([[1, 1, 1, 1]]),
                       scripted_rng([2]))
        assert c1.tolist() == [[0, 0, 1, 1]]
        assert c2.tolist() == [[1, 1, 0, 0]]

    def test_identical_parents_yield_identical_children(self, scripted_rng):
        g = np.tile([1, 0, 1, 1], (3, 1))
        c1, c2 = cross(BIN4, g, g, scripted_rng([1, 2, 3]))
        assert np.array_equal(c1, g) and np.array_equal(c2, g)


def reference_single_point(p1, p2, cuts):
    """Reference single-point crossover: two `np.where`s on an int64 mask."""
    take_other = np.arange(p1.shape[1]) >= cuts[:, None]
    return np.where(take_other, p2, p1), np.where(take_other, p1, p2)


class TestRecombineSinglePointOracle:
    @pytest.mark.parametrize("dtype", [np.uint8, np.int64])
    @pytest.mark.parametrize("length", [2, 8, 255, 256, 300])
    def test_bit_equal_to_reference(self, length, dtype):
        rng = np.random.default_rng(length)
        m = 40
        info = np.iinfo(dtype)
        # any integer genes, not only 0/1: full-range values, negatives for int64
        p1 = rng.integers(info.min, info.max, size=(m, length), dtype=dtype, endpoint=True)
        p2 = rng.integers(info.min, info.max, size=(m, length), dtype=dtype, endpoint=True)
        p1[:5], p2[:5] = p1[:5] % 2, p2[:5] % 2
        cuts = rng.integers(1, length, size=m)
        cuts[:3], cuts[3:6] = 1, length - 1
        # each child keeps its own parent's loci before the cut
        keep = np.arange(length) < cuts[:, None]
        domain = GeneDomain.binary(length)
        c1, c2 = recombine(domain, p1, keep, p2), recombine(domain, p2, keep, p1)
        e1, e2 = reference_single_point(p1, p2, cuts)
        assert c1.dtype == c2.dtype == e1.dtype == dtype
        assert np.array_equal(c1, e1) and np.array_equal(c2, e2)


class TestOrderCrossover:
    def test_hand_traced_example(self, scripted_rng):
        p1 = np.array([[1, 2, 3, 4, 5]])
        p2 = np.array([[5, 4, 3, 2, 1]])
        # segment ends drawn as one (2, m) batch, 3 then 2: the segment is
        # loci 2..3 either way
        c1, c2 = cross(PERM5, p1, p2, scripted_rng([[3], [2]]))
        # child keeps (.,.,3,4,.) and takes 5,2,1 in p2 order
        assert c1.tolist() == [[5, 2, 3, 4, 1]]
        assert c2.tolist() == [[1, 4, 3, 2, 5]]

    def test_identical_parents_identity(self, scripted_rng):
        g = np.tile([3, 1, 4, 2, 5], (4, 1))
        # segments (0, 0), (1, 3), (0, 4) and (4, 4), one per row
        c1, c2 = cross(PERM5, g, g, scripted_rng([[0, 1, 0, 4], [0, 3, 4, 4]]))
        assert np.array_equal(c1, g) and np.array_equal(c2, g)

    @pytest.mark.parametrize("length", [3, 10, 23, 34, 157, 209, 300, 65536, 2 ** 33])
    def test_one_draw_of_segment_ends_replays_two(self, length):
        # crossover_batch draws both segment ends as one (2, m) batch; on this
        # NumPy that is the same values and generator state as two draws of m,
        # so fits replay the streams of the two-call form
        for seed in range(20):
            for m in (1, 7, 40, 45):
                one, two = np.random.default_rng(seed), np.random.default_rng(seed)
                a, b = one.integers(0, length, size=(2, m))
                assert np.array_equal(a, two.integers(0, length, size=m))
                assert np.array_equal(b, two.integers(0, length, size=m))
                assert one.random() == two.random()

    def test_closure_over_random_cases(self):
        # permutation invariant must survive 10^4 randomized crossovers
        rng = np.random.default_rng(11)
        dom = GeneDomain.permutation(7, separators=2)
        sorted_alphabet = dom.alphabet
        for _ in range(100):
            p1 = dom.sample_batch(rng, 100)
            p2 = dom.sample_batch(rng, 100)
            c1, c2 = cross(dom, p1, p2, rng)
            for batch in (c1, c2):
                assert np.array_equal(np.sort(batch, axis=1),
                                      np.tile(sorted_alphabet, (100, 1)))

    def test_binary_closure(self):
        rng = np.random.default_rng(5)
        dom = GeneDomain.binary(9)
        p1 = dom.sample_batch(rng, 10_000)
        p2 = dom.sample_batch(rng, 10_000)
        c1, c2 = cross(dom, p1, p2, rng)
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


class TestRecombineExamples:
    def test_single_point_example(self):
        # the cut at two: loci 0 and 1 kept from the base
        keep = np.array([True, True, False, False])
        assert recombine(BIN4, np.array([[0, 0, 0, 0]]), keep,
                         np.array([[1, 1, 1, 1]])).tolist() == [[0, 0, 1, 1]]

    def test_hand_traced_ox_example(self):
        # keeps (.,.,3,4,.) and takes 5,2,1 in the fill's order
        keep = np.array([[False, False, True, True, False]])
        assert recombine(PERM5, np.array([[1, 2, 3, 4, 5]]), keep,
                         np.array([[5, 4, 3, 2, 1]])).tolist() == [[5, 2, 3, 4, 1]]


def reference_recombine(binary, base, keep, fill):
    """One child per row of `fill`, built in a Python loop: `base`'s genes at
    the kept loci; elsewhere `fill`'s gene at the locus (binary), or `fill`'s
    symbols that the kept loci lack, in `fill`'s order (permutation)."""
    base, keep = np.broadcast_to(base, fill.shape), np.broadcast_to(keep, fill.shape)
    children = []
    for b, k, f in zip(base.tolist(), keep.tolist(), fill.tolist()):
        if binary:
            children.append([kept if is_kept else other for kept, is_kept, other in zip(b, k, f)])
            continue
        kept = {gene for gene, is_kept in zip(b, k) if is_kept}
        rest = iter([gene for gene in f if gene not in kept])
        children.append([gene if is_kept else next(rest) for gene, is_kept in zip(b, k)])
    return children


class TestRecombineProperty:
    @pytest.mark.parametrize("domain,dtype", [
        (GeneDomain.binary(9), np.uint8),
        (GeneDomain.binary(300), np.uint16),
        (GeneDomain.permutation(7, separators=2), np.uint8),
        (GeneDomain.permutation(7, separators=2), np.uint16),
        (GeneDomain.permutation(290, separators=10), np.uint16),
    ], ids=lambda x: getattr(x, "__name__", None) or f"{x.kind.name}-{x.length}")
    @pytest.mark.parametrize("shared", ["none", "keep", "base", "both"])
    def test_equals_per_row_loop(self, domain, dtype, shared):
        # random rows and masks, one mask density per trial, from all open
        # to all kept; a shared base or mask is one (L,) row for every child
        rng = np.random.default_rng(domain.length)
        binary = domain.kind is DomainKind.BINARY
        for density in (0.0, 0.1, 0.5, 0.9, 1.0):
            n = int(rng.integers(1, 30))
            fill = domain.sample_batch(rng, n).astype(dtype)
            base = domain.sample_batch(rng, 1 if shared in ("base", "both") else n).astype(dtype)
            keep = rng.random((1 if shared in ("keep", "both") else n, domain.length)) < density
            if shared in ("base", "both"):
                base = base[0]
            if shared in ("keep", "both"):
                keep = keep[0]
            child = recombine(domain, base, keep, fill)
            assert child.shape == fill.shape and child.dtype == dtype
            assert child.tolist() == reference_recombine(binary, base, keep, fill)


class TestRecombineSharedRow:
    @pytest.mark.parametrize("domain", [GeneDomain.permutation(7, separators=2),
                                        GeneDomain.permutation(290, separators=10)],
                             ids=lambda d: f"L{d.length}-{np.dtype(d.dtype).name}")
    def test_shared_rows_equal_the_rows_tiled(self, domain):
        # a shared base and keep row, as gene injection passes them: a base
        # with repeated symbols, as a near-converged elite's dominant
        # chromosome holds, kept only at each symbol's first masked locus;
        # one child, as the dominant candidate asks, and a random cohort
        rng = np.random.default_rng(domain.length)
        for density in (0.0, 0.3, 0.7, 1.0):
            for n in (1, int(rng.integers(2, 20))):
                fill = domain.sample_batch(rng, n)
                base = rng.choice(domain.alphabet, size=domain.length).astype(domain.dtype)
                base[-1] = base[0]
                masked = (rng.random(domain.length) < density).nonzero()[0]
                keep = np.zeros(domain.length, dtype=bool)
                keep[masked[np.unique(base[masked], return_index=True)[1]]] = True
                shared = recombine(domain, base, keep, fill)
                tiled = recombine(domain, np.tile(base, (n, 1)), np.tile(keep, (n, 1)), fill)
                assert shared.dtype == tiled.dtype == domain.dtype
                assert np.array_equal(shared, tiled)
                assert np.array_equal(np.sort(shared, axis=1), np.sort(fill, axis=1))


class TestRecombineOxOracle:
    @pytest.mark.parametrize("domain", [
        GeneDomain.permutation(2),
        GeneDomain.permutation(16, separators=4),
        GeneDomain.permutation(200, separators=9),
        GeneDomain.permutation(250, separators=5),  # L=255: uint8 positions
        GeneDomain.permutation(250, separators=6),  # L=256: uint16 positions
        GeneDomain.permutation(290, separators=10),  # 300 symbols: uint16 genes
    ], ids=lambda d: f"L{d.length}")
    def test_bit_equal_to_reference(self, domain):
        rng = np.random.default_rng(domain.length)
        m, length = 60, domain.length
        seg_parent, fill_parent = domain.sample_batch(rng, m), domain.sample_batch(rng, m)
        a, b = rng.integers(0, length, size=m), rng.integers(0, length, size=m)
        lo, hi = np.minimum(a, b), np.maximum(a, b)
        # one-locus segments, then whole-row segments
        hi[:10] = lo[:10]
        lo[10:20], hi[10:20] = 0, length - 1
        in_segment = (np.arange(length) >= lo[:, None]) & (np.arange(length) <= hi[:, None])
        child = recombine(domain, seg_parent, in_segment, fill_parent)
        expected = reference_ox(seg_parent, fill_parent, lo, hi)
        assert child.dtype == expected.dtype == domain.dtype
        assert np.array_equal(child, expected)
        assert np.array_equal(child[10:20], seg_parent[10:20])


class TestCrossoverWrapper:
    def test_single_pair_valid_children(self):
        rng = np.random.default_rng(0)
        p1, p2 = PERM5.sample_batch(rng, 1), PERM5.sample_batch(rng, 1)
        c1, c2 = cross(PERM5, p1, p2, rng)
        assert c1.shape == c2.shape == (1, 5)
        assert PERM5.contains(c1[0]) and PERM5.contains(c2[0])

    @pytest.mark.parametrize("shape", [(2, 3, 4), (2, 1, 4), (4, 4), (2, 2, 5), (1, 2, 2, 4)])
    def test_pairs_of_the_wrong_shape_rejected(self, shape):
        message = rf"parent pairs of shape \({', '.join(map(str, shape))}\) .* length L = 4"
        with pytest.raises(ValueError, match=message):
            crossover_batch(BIN4, np.zeros(shape, int), np.random.default_rng(0))

    def test_length_one_binary_children_copy_parents(self):
        dom = GeneDomain.binary(1)
        c1, c2 = cross(dom, np.array([[0]]), np.array([[1]]), np.random.default_rng(0))
        assert c1.tolist() == [[0]] and c2.tolist() == [[1]]

    def test_determinism(self):
        p1 = PERM5.sample_batch(np.random.default_rng(1), 3)
        p2 = PERM5.sample_batch(np.random.default_rng(2), 3)
        pairs = np.stack([p1, p2], axis=1)
        assert np.array_equal(crossover_batch(PERM5, pairs, np.random.default_rng(9)),
                              crossover_batch(PERM5, pairs, np.random.default_rng(9)))


class TestOxSegmentDistribution:
    def test_segment_ends_are_two_independent_uniform_draws(self, monkeypatch,
                                                             within_five_sigma):
        # ends a, b uniform on the 6 loci and independent: segment (lo, hi)
        # has probability 2/36 for lo < hi and 1/36 for lo == hi; 60,000 pairs
        domain, m = GeneDomain.permutation(6), 60_000
        seen = []
        kernel = gea.operators.recombine

        def recorded(domain, base, keep, fill):
            seen.append(keep)
            return kernel(domain, base, keep, fill)

        monkeypatch.setattr(gea.operators, "recombine", recorded)
        pairs = np.tile(np.arange(1, 7, dtype=domain.dtype), (m, 2, 1))
        crossover_batch(domain, pairs, np.random.default_rng(8))
        keep, = seen
        # each kept segment is one run of loci lo..hi
        lo, hi = keep.argmax(axis=1), 5 - keep[:, ::-1].argmax(axis=1)
        assert np.array_equal(keep.sum(axis=1), hi - lo + 1)
        # both children of a pair share its segment
        assert np.array_equal(lo[0::2], lo[1::2]) and np.array_equal(hi[0::2], hi[1::2])
        counts = np.bincount(lo[0::2] * 6 + hi[0::2], minlength=36).reshape(6, 6)
        assert not np.tril(counts, -1).any()
        p = np.triu(np.full((6, 6), 2 / 36), 1) + np.eye(6) / 36
        upper = np.triu_indices(6)
        assert within_five_sigma(counts[upper], p[upper])


class TestCrossoverPairOracle:
    @pytest.mark.parametrize("domain", [
        GeneDomain.binary(9),
        GeneDomain.binary(300),
        GeneDomain.permutation(20, separators=3),
        GeneDomain.permutation(200, separators=9),
    ], ids=lambda d: f"{d.kind.name}-{d.length}")
    @pytest.mark.parametrize("m", [1, 7, 40])
    def test_pair_rows_equal_reference_children(self, domain, m):
        # rows 2i and 2i+1 are the reference children of (p1, p2) and
        # (p2, p1) under the cut points drawn from the same stream, and the
        # call leaves the stream where the references' draws leave it
        rng = np.random.default_rng(domain.length + m)
        p1, p2 = domain.sample_batch(rng, m), domain.sample_batch(rng, m)
        seed = int(rng.integers(1 << 30))
        got_rng, expected_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        children = crossover_batch(domain, np.stack([p1, p2], axis=1), got_rng)
        length = domain.length
        if domain.kind is DomainKind.BINARY:
            e1, e2 = reference_single_point(p1, p2, expected_rng.integers(1, length, size=m))
        else:
            a, b = expected_rng.integers(0, length, size=(2, m))
            lo, hi = np.minimum(a, b), np.maximum(a, b)
            e1, e2 = reference_ox(p1, p2, lo, hi), reference_ox(p2, p1, lo, hi)
        assert children.shape == (2 * m, length) and children.dtype == domain.dtype
        assert np.array_equal(children[0::2], e1)
        assert np.array_equal(children[1::2], e2)
        assert got_rng.random() == expected_rng.random()


def reference_mutate_loci(domain, genomes, free, rng):
    """The 2-D form of `mutate_loci`: rows indexed by row number, loci by `free`."""
    out = genomes.copy()
    rows = np.arange(genomes.shape[0])
    i = rng.integers(0, free.size, size=rows.size)
    if domain.kind is DomainKind.BINARY:
        out[rows, free[i]] ^= 1
        return out
    j = rng.integers(0, free.size - 1, size=rows.size)
    j = j + (j >= i)
    out[rows, free[i]], out[rows, free[j]] = genomes[rows, free[j]], genomes[rows, free[i]]
    return out


class TestMutateLociOracle:
    @pytest.mark.parametrize("domain", [GeneDomain.binary(1), GeneDomain.binary(300),
                                        GeneDomain.permutation(2), GeneDomain.permutation(23),
                                        GeneDomain.permutation(300, separators=4)],
                             ids=lambda d: f"{d.kind.name}-{d.length}")
    def test_bit_equal_to_2d_reference(self, domain):
        rng = np.random.default_rng(5)
        minimum = 1 if domain.kind is DomainKind.BINARY else 2
        for m in (1, 10, 90):
            genomes = domain.sample_batch(rng, m)
            for free in (np.arange(domain.length),
                         np.flatnonzero(rng.random(domain.length) < 0.5)):
                if free.size < minimum:
                    continue
                seed = int(rng.integers(1 << 30))
                got = mutate_loci(domain, genomes, free, np.random.default_rng(seed))
                expected = reference_mutate_loci(domain, genomes, free, np.random.default_rng(seed))
                assert got.dtype == genomes.dtype
                assert np.array_equal(got, expected)


class TestMutateLociDistribution:
    FREE = np.array([0, 2, 3, 5, 6])

    def test_flipped_locus_is_uniform_over_free_loci(self, within_five_sigma):
        genomes = np.zeros((50_000, 7), dtype=np.uint8)
        out = mutate_loci(GeneDomain.binary(7), genomes, self.FREE, np.random.default_rng(6))
        rows, loci = np.nonzero(out)
        assert np.array_equal(rows, np.arange(len(genomes)))
        counts = np.bincount(loci, minlength=7)
        assert counts[np.setdiff1d(np.arange(7), self.FREE)].sum() == 0
        assert within_five_sigma(counts[self.FREE], 1 / len(self.FREE))

    def test_swapped_pair_is_uniform_over_distinct_pairs(self, within_five_sigma):
        domain = GeneDomain.permutation(7)
        genomes = np.tile(np.arange(1, 8, dtype=domain.dtype), (50_000, 1))
        out = mutate_loci(domain, genomes, self.FREE, np.random.default_rng(7))
        rows, loci = np.nonzero(out != genomes)
        assert np.array_equal(rows, np.arange(len(genomes)).repeat(2))
        pairs = loci.reshape(-1, 2) @ np.array([7, 1])
        counts = np.bincount(pairs, minlength=49)
        pair_ids = [7 * a + b for i, a in enumerate(self.FREE) for b in self.FREE[i + 1:]]
        assert counts.sum() == counts[pair_ids].sum()
        assert within_five_sigma(counts[pair_ids], 1 / len(pair_ids))


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
        assert mutate_batch(dom, np.array([[0]]), np.random.default_rng(0)).tolist() == [[1]]

    def test_binary_mutant_differs_in_exactly_one_locus(self):
        rng = np.random.default_rng(21)
        dom = GeneDomain.binary(8)
        genomes = dom.sample_batch(rng, 5000)
        mutants = mutate_batch(dom, genomes, rng)
        assert ((mutants != genomes).sum(axis=1) == 1).all()

    def test_swap_mutant_differs_in_exactly_two_loci(self):
        rng = np.random.default_rng(22)
        dom = GeneDomain.permutation(6, separators=1)
        genomes = dom.sample_batch(rng, 5000)
        mutants = mutate_batch(dom, genomes, rng)
        assert ((mutants != genomes).sum(axis=1) == 2).all()
        assert np.array_equal(np.sort(mutants, axis=1), np.sort(genomes, axis=1))

    def test_determinism(self):
        dom = GeneDomain.permutation(5)
        g = dom.sample_batch(np.random.default_rng(3), 4)
        assert np.array_equal(mutate_batch(dom, g, np.random.default_rng(7)),
                              mutate_batch(dom, g, np.random.default_rng(7)))
