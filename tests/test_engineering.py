from collections import Counter

import numpy as np
import pytest

from gea.engineering import (build_mask, directed_mutation_batch, dominant_candidate,
                             dominant_chromosome, gene_injection_batch, repetition_matrix)
from gea.genome import GeneDomain
from gea.operators import mutate_batch, recombine


def dominant_of(elite):
    """(genes, repeat counts) of the elite, through the two pass functions."""
    return dominant_chromosome(repetition_matrix(elite), elite)


def entry_count_oracle(elite):
    """Independent per-entry repeat counts: a Counter per locus column."""
    elite = np.asarray(elite)
    columns = [Counter(elite[:, locus].tolist()) for locus in range(elite.shape[1])]
    return np.array([[columns[locus][symbol] for locus, symbol in enumerate(row)]
                     for row in elite.tolist()])


def majority_oracle(elite):
    """Independent per-locus majority count with first-encountered tie-break."""
    elite = np.asarray(elite)
    genes, repeats = [], []
    for locus in range(elite.shape[1]):
        column = elite[:, locus].tolist()
        counts = Counter(column)
        best_symbol, best_count = None, -1
        for symbol in column:  # scan order decides ties
            if counts[symbol] > best_count:
                best_symbol, best_count = symbol, counts[symbol]
        genes.append(best_symbol)
        repeats.append(best_count)
    return np.array(genes), np.array(repeats)


class TestRepetitionMatrix:
    def test_counts_example(self):
        counts = repetition_matrix(np.array([[1, 0, 1], [1, 1, 0], [1, 0, 0]]))
        # locus 0 holds 1 three times; locus 1 holds 0 twice and 1 once;
        # locus 2 holds 1 once and 0 twice
        assert counts.tolist() == [[3, 2, 1], [3, 1, 2], [3, 2, 2]]

    def test_identical_members(self):
        counts = repetition_matrix(np.array([[0, 1], [0, 1]]))
        assert counts.tolist() == [[2, 2], [2, 2]]

    def test_single_member(self):
        counts = repetition_matrix(np.array([[1, 0]]))
        assert counts.tolist() == [[1, 1]]

    def test_empty_elite_rejected(self):
        with pytest.raises(ValueError):
            repetition_matrix(np.empty((0, 3), dtype=np.int64))


class TestDominantChromosome:
    def test_majority_example(self):
        genes, repeat_counts = dominant_of(np.array([[1, 0, 1], [1, 1, 0], [1, 0, 0]]))
        assert genes.tolist() == [1, 0, 0]
        assert repeat_counts.tolist() == [3, 2, 2]

    def test_tie_keeps_first_encountered(self):
        assert dominant_of(np.array([[0], [1]]))[0].tolist() == [0]
        assert dominant_of(np.array([[1], [0]]))[0].tolist() == [1]

    def test_identical_elite(self):
        g = np.array([2, 1, 3])
        genes, repeat_counts = dominant_of(np.stack([g, g, g]))
        assert genes.tolist() == g.tolist()
        assert repeat_counts.tolist() == [3, 3, 3]

    def test_matches_independent_oracle(self):
        rng = np.random.default_rng(99)
        for trial in range(3000):
            m = int(rng.integers(1, 7))
            if trial % 3 == 0:
                length = int(rng.integers(1, 9))
                elite = rng.integers(0, 2, size=(m, length))
            else:
                dom = GeneDomain.permutation(int(rng.integers(2, 8)), int(rng.integers(1, 4)))
                elite = dom.sample_batch(rng, m)
                if trial % 3 == 2:
                    # near-converged: each row one swap away from one of two
                    # parents, so many loci end in count ties among symbols
                    elite = elite[rng.integers(0, min(m, 2), size=m)]
                    for row in elite:
                        i, j = rng.choice(dom.length, size=2, replace=False)
                        row[[i, j]] = row[[j, i]]
            entry_counts = repetition_matrix(elite)
            assert np.array_equal(entry_counts, entry_count_oracle(elite))
            dc_genes, repeat_counts = dominant_chromosome(entry_counts, elite)
            genes, repeats = majority_oracle(elite)
            assert np.array_equal(dc_genes, genes)
            assert np.array_equal(repeat_counts, repeats)


class TestBuildMask:
    def test_strict_threshold(self):
        mask = build_mask(np.array([3, 2, 2]), 2)
        assert mask.dtype == bool
        assert mask.tolist() == [True, False, False]

    def test_zero_threshold_disables_mask(self):
        mask = build_mask(np.array([5, 9]), 0)
        assert mask.dtype == bool
        assert mask.tolist() == [False, False]

    def test_negative_threshold_rejected(self):
        with pytest.raises(ValueError):
            build_mask(np.array([1]), -1)

    def test_exhaustive_small_elites(self):
        # the mask is locus-separable: every elite column of height M <= 4 is
        # enumerated exhaustively, plus full matrices wherever 2^(M*L) <= 2^16
        for m in range(1, 5):
            columns = [np.array([(code >> r) & 1 for r in range(m)])
                       for code in range(2 ** m)]
            for length in range(1, 7):
                for t in range(0, m + 2):
                    for code, column in enumerate(columns):
                        elite = column[:, None].repeat(length, axis=1)
                        repeat_counts = dominant_of(elite)[1]
                        mask = build_mask(repeat_counts, t)
                        expected = bool(repeat_counts[0] > t and t != 0)
                        assert (mask == expected).all()
                if m * length <= 16:
                    for code in range(2 ** (m * length)):
                        bits = (code >> np.arange(m * length)) & 1
                        elite = bits.reshape(m, length)
                        repeat_counts = dominant_of(elite)[1]
                        for t in (0, 1, m // 2, m):
                            mask = build_mask(repeat_counts, t)
                            expected = (repeat_counts > t) & (t != 0)
                            assert mask.dtype == bool
                            assert np.array_equal(mask, expected)


class TestDirectedMutation:
    def test_binary_flips_only_unmasked_locus(self, scripted_rng):
        dom = GeneDomain.binary(4)
        rng = scripted_rng([0])  # first free locus, i.e. locus 1
        out = directed_mutation_batch(dom, np.array([[1, 0, 1, 1]]),
                                      np.array([True, False, False, True]), rng)
        assert out.tolist() == [[1, 1, 1, 1]]

    def test_all_ones_mask_is_identity(self):
        dom = GeneDomain.binary(3)
        g = np.array([[1, 0, 1]])
        out = directed_mutation_batch(dom, g, np.ones(3, dtype=bool), np.random.default_rng(0))
        assert out.tolist() == g.tolist()

    def test_permutation_forced_swap(self, scripted_rng):
        dom = GeneDomain.permutation(4)
        # free loci are 0 and 3; the second draw skips the first, so both swap
        rng = scripted_rng([0], [0])
        out = directed_mutation_batch(dom, np.array([[3, 1, 2, 4]]),
                                      np.array([False, True, True, False]), rng)
        assert out.tolist() == [[4, 1, 2, 3]]

    def test_permutation_single_free_locus_is_identity(self):
        dom = GeneDomain.permutation(3)
        g = np.array([[2, 3, 1]])
        out = directed_mutation_batch(dom, g, np.array([True, False, True]),
                                      np.random.default_rng(0))
        assert out.tolist() == g.tolist()

    def test_mask_length_must_match(self):
        dom = GeneDomain.binary(3)
        with pytest.raises(ValueError, match="mask must be a bool row of the genome length"):
            directed_mutation_batch(dom, np.array([[0, 1, 0]]), np.array([True, False]),
                                    np.random.default_rng(0))

    @pytest.mark.parametrize("kind", ["binary", "permutation"])
    def test_all_zero_mask_matches_mutate_batch(self, kind):
        # one mutation kernel: an open mask leaves every locus to draw from
        dom = GeneDomain.binary(8) if kind == "binary" else GeneDomain.permutation(6, 2)
        genomes = dom.sample_batch(np.random.default_rng(4), 200)
        directed = directed_mutation_batch(dom, genomes, np.zeros(dom.length, dtype=bool),
                                           np.random.default_rng(8))
        assert np.array_equal(directed, mutate_batch(dom, genomes, np.random.default_rng(8)))
        assert (directed != genomes).any()

    @pytest.mark.parametrize("kind", ["binary", "permutation"])
    def test_masked_loci_never_change(self, kind):
        rng = np.random.default_rng(31)
        dom = GeneDomain.binary(8) if kind == "binary" else GeneDomain.permutation(6, 2)
        for _ in range(100):
            fixed = rng.integers(0, 2, size=dom.length) == 1
            genomes = dom.sample_batch(rng, 100)
            out = directed_mutation_batch(dom, genomes, fixed, rng)
            assert np.array_equal(out[:, fixed], genomes[:, fixed])
            if kind == "permutation":
                assert np.array_equal(np.sort(out, axis=1), np.sort(genomes, axis=1))


class TestGeneInjection:
    def test_binary_pointwise(self):
        dom = GeneDomain.binary(4)
        dc_genes = np.array([1, 1, 0, 1])
        out = gene_injection_batch(dom, np.array([[0, 0, 0, 0]]),
                                   np.array([True, False, False, True]), dc_genes)
        assert out.tolist() == [[1, 0, 0, 1]]

    def test_zero_mask_is_identity(self):
        dom = GeneDomain.binary(3)
        g = np.array([[0, 1, 0]])
        dc_genes = np.array([1, 1, 1])
        out = gene_injection_batch(dom, g, np.zeros(3, dtype=bool), dc_genes)
        assert out.tolist() == g.tolist()

    def test_permutation_repair_example(self):
        dom = GeneDomain.permutation(4)
        # locus 0 takes dominant symbol 1; 2, 3, 4 refill the rest in row order
        dc_genes = np.array([1, 3, 2, 4])
        out = gene_injection_batch(dom, np.array([[2, 3, 1, 4]]),
                                   np.array([True, False, False, False]), dc_genes)
        assert out.tolist() == [[1, 2, 3, 4]]

    @pytest.mark.parametrize("kind", ["binary", "permutation"])
    def test_lengths_must_match(self, kind):
        dom = GeneDomain.binary(4) if kind == "binary" else GeneDomain.permutation(4)
        genomes = dom.sample_batch(np.random.default_rng(0), 2)
        dc_genes = dom.sample_batch(np.random.default_rng(1), 1)[0]
        with pytest.raises(ValueError, match="genome length"):
            gene_injection_batch(dom, genomes, np.array([True, False]), dc_genes)
        with pytest.raises(ValueError, match="genome length"):
            gene_injection_batch(dom, genomes, np.ones(4, dtype=bool), dc_genes[:3])

    def test_keep_row_must_be_bool(self):
        # injection takes the pass's bool mask as it is: a 0/1 integer row is
        # refused, not read as a mask
        dom = GeneDomain.binary(4)
        with pytest.raises(ValueError, match=r"mask \(bool\)"):
            gene_injection_batch(dom, np.zeros((1, 4), dtype=np.uint8), np.array([1, 0, 0, 1]),
                                 np.ones(4, dtype=np.uint8))

    def test_injection_postconditions_randomized(self):
        rng = np.random.default_rng(77)
        bin_dom = GeneDomain.binary(9)
        perm_dom = GeneDomain.permutation(6, separators=2)
        for _ in range(100):
            bits = rng.integers(0, 2, size=9)
            dc_genes = rng.integers(0, 2, size=9)
            genomes = bin_dom.sample_batch(rng, 100)
            out = gene_injection_batch(bin_dom, genomes, bits == 1, dc_genes)
            expected = np.where(bits[None, :] == 1, dc_genes[None, :], genomes)
            assert np.array_equal(out, expected)

            pbits = rng.integers(0, 2, size=perm_dom.length)
            pdc = perm_dom.sample_batch(rng, 1)[0]
            perms = perm_dom.sample_batch(rng, 100)
            pout = gene_injection_batch(perm_dom, perms, pbits == 1, pdc)
            assert np.array_equal(np.sort(pout, axis=1),
                                  np.tile(perm_dom.alphabet, (100, 1)))
            masked = pbits == 1
            # dominant values at masked loci are distinct here (pdc is a permutation)
            assert np.array_equal(pout[:, masked],
                                  np.tile(pdc[masked], (100, 1)))


def symbol_table_repair(mask, dc_genes, genomes):
    """The former permutation injection, one row at a time: the first masked
    locus of each dominant symbol takes that symbol, and the row's other
    symbols fill the remaining loci in row order."""
    first_locus = {}
    for locus in np.flatnonzero(mask).tolist():
        first_locus.setdefault(int(dc_genes[locus]), locus)
    fixed = {locus: symbol for symbol, locus in first_locus.items()}
    out = []
    for row in genomes.tolist():
        rest = iter([symbol for symbol in row if symbol not in first_locus])
        out.append([fixed[locus] if locus in fixed else next(rest)
                    for locus in range(len(row))])
    return out


def injection_keep(mask, dc_genes):
    """The keep row that permutation injection derives from the mask: the
    first masked locus of each dominant symbol."""
    masked = mask.nonzero()[0]
    keep = np.zeros_like(mask)
    keep[masked[np.unique(dc_genes[masked], return_index=True)[1]]] = True
    return keep


class TestPermutationInjectionOracle:
    @pytest.mark.parametrize("domain", [GeneDomain.permutation(7, separators=2),
                                        GeneDomain.permutation(290, separators=10)],
                             ids=lambda d: f"L{d.length}-{np.dtype(d.dtype).name}")
    def test_equals_symbol_table_repair(self, domain):
        # dominant chromosomes with repeated symbols, some of them under the
        # mask, as a near-converged elite gives
        rng = np.random.default_rng(domain.length)
        for _ in range(200):
            genomes = domain.sample_batch(rng, int(rng.integers(1, 20)))
            dc_genes = rng.choice(domain.alphabet, size=domain.length).astype(domain.dtype)
            mask = rng.random(domain.length) < rng.choice([0.0, 0.3, 0.7, 1.0])
            masked = np.flatnonzero(mask)
            if masked.size >= 2:
                dc_genes[masked[-1]] = dc_genes[masked[0]]
            out = gene_injection_batch(domain, genomes, mask, dc_genes)
            assert out.dtype == domain.dtype
            assert out.tolist() == symbol_table_repair(mask, dc_genes, genomes)
            assert np.array_equal(out, recombine(domain, dc_genes,
                                                 injection_keep(mask, dc_genes), genomes))
            assert np.array_equal(np.sort(out, axis=1), np.sort(genomes, axis=1))


class TestMaskReading:
    @pytest.mark.parametrize("kind", ["binary", "permutation"])
    def test_nonzero_entry_is_fixed_in_both_kernels(self, kind):
        # a set entry of the bool mask fixes its locus in both kernels:
        # directed mutation leaves it, injection writes the dominant gene;
        # an integer entry of 2 is refused rather than read as True
        dom = GeneDomain.binary(6) if kind == "binary" else GeneDomain.permutation(6)
        genomes = dom.sample_batch(np.random.default_rng(5), 50)
        dc_genes = dom.sample_batch(np.random.default_rng(6), 1)[0]
        twos = np.array([2, 0, 0, 2, 0, 0])
        fixed = twos != 0
        mutated = directed_mutation_batch(dom, genomes, fixed, np.random.default_rng(7))
        assert np.array_equal(mutated[:, fixed], genomes[:, fixed])
        injected = gene_injection_batch(dom, genomes, fixed, dc_genes)
        assert (injected[:, fixed] == dc_genes[fixed]).all()
        with pytest.raises(ValueError, match="mask must be a bool row"):
            directed_mutation_batch(dom, genomes, twos, np.random.default_rng(7))
        with pytest.raises(ValueError, match=r"mask \(bool\)"):
            gene_injection_batch(dom, genomes, twos, dc_genes)

    @pytest.mark.parametrize("kind", ["binary", "permutation"])
    def test_non_bool_or_misshapen_mask_refused_in_both_kernels(self, kind):
        # both kernels take the pass's bool mask as it is: a 0/1 integer or
        # float row, a row of another length or a 2-D mask is refused
        dom = GeneDomain.binary(4) if kind == "binary" else GeneDomain.permutation(4)
        genomes = dom.sample_batch(np.random.default_rng(5), 3)
        dc_genes = dom.sample_batch(np.random.default_rng(6), 1)[0]
        for mask in (np.array([1, 0, 0, 1]), np.array([2, 0, 0, 2]), np.array([1.0, 0, 0, 1]),
                     [True, False, False, True], np.ones(3, dtype=bool), np.ones(5, dtype=bool),
                     np.ones((1, 4), dtype=bool)):
            with pytest.raises(ValueError, match="mask must be a bool row"):
                directed_mutation_batch(dom, genomes, mask, np.random.default_rng(7))
            with pytest.raises(ValueError, match=r"mask \(bool\) and dominant chromosome"):
                gene_injection_batch(dom, genomes, mask, dc_genes)


class TestRepairPermutation:
    # the one permutation repair, reached through gene injection: masked
    # loci keep their dominant symbols, the others are filled in source order
    def test_fill_in_source_order(self):
        dom, dc_genes = GeneDomain.permutation(4), np.array([1, 1, 1, 1])
        out = gene_injection_batch(dom, np.array([[2, 3, 1, 4]]),
                                   np.array([True, False, False, False]), dc_genes)
        assert out[0].tolist() == [1, 2, 3, 4]

    def test_no_fixed_loci_returns_source(self):
        src = np.array([3, 1, 2])
        dom, dc_genes = GeneDomain.permutation(3), np.array([1, 2, 3])
        out = gene_injection_batch(dom, src[None, :], np.zeros(3, dtype=bool), dc_genes)
        assert out[0].tolist() == src.tolist()

    def test_fully_fixed_returns_fixed(self):
        dom, dc_genes = GeneDomain.permutation(3), np.array([2, 1, 3])
        out = gene_injection_batch(dom, np.array([[1, 2, 3]]), np.ones(3, dtype=bool), dc_genes)
        assert out[0].tolist() == [2, 1, 3]


class TestDominantCandidate:
    def test_binary_candidate_is_dc(self):
        dom = GeneDomain.binary(3)
        dc_genes = np.array([1, 0, 1], dtype=dom.dtype)
        out = dominant_candidate(dom, dc_genes, np.array([0, 0, 0], dtype=dom.dtype))
        assert out.tolist() == [1, 0, 1] and out.dtype == dom.dtype
        # a copy: the candidate outlives the elite pass it was read from
        assert not np.shares_memory(out, dc_genes)

    def test_permutation_candidate_repaired(self):
        dom = GeneDomain.permutation(4)
        template = np.array([4, 3, 2, 1])
        out = dominant_candidate(dom, np.array([2, 2, 1, 1]), template)
        # first occurrences fixed: locus 0 := 2, locus 2 := 1; fill 4,3 in template order
        assert out.tolist() == [2, 4, 1, 3]
        assert dom.contains(out)

    def test_matches_repair_oracle(self):
        def repair(dominant, template):
            # first occurrence of each dominant symbol fixed, other loci
            # filled with the remaining symbols in template order
            first = {}
            for locus, symbol in enumerate(dominant):
                first.setdefault(symbol, locus)
            fixed = {locus: symbol for symbol, locus in first.items()}
            fill = iter([symbol for symbol in template if symbol not in first])
            return [fixed[locus] if locus in fixed else next(fill)
                    for locus in range(len(dominant))]

        rng = np.random.default_rng(13)
        for trial in range(1000):
            dom = GeneDomain.permutation(int(rng.integers(2, 9)), int(rng.integers(0, 4)))
            if trial % 4 == 0:
                genes = dom.sample_batch(rng, 1)[0]  # already a valid genome
            else:
                genes = rng.choice(dom.alphabet, size=dom.length)
            template = dom.sample_batch(rng, 1)[0]
            out = dominant_candidate(dom, genes, template)
            assert out.tolist() == repair(genes.tolist(), template.tolist())
            assert dom.contains(out)
