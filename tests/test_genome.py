import numpy as np
import pytest

from gea.genome import DomainKind, GeneDomain


class TestGeneDomain:
    def test_binary_alphabet(self):
        dom = GeneDomain.binary(4)
        assert dom.kind is DomainKind.BINARY
        assert dom.length == 4
        assert list(dom.alphabet) == [0, 1]
        assert dom.n_symbols == 2

    def test_permutation_alphabet_includes_separators(self):
        dom = GeneDomain.permutation(4, separators=1)
        assert dom.length == 5
        assert list(dom.alphabet) == [1, 2, 3, 4, 5]
        assert dom.n_items == 4

    @pytest.mark.parametrize("bad", [0, -3])
    def test_rejects_nonpositive_length(self, bad):
        with pytest.raises(ValueError):
            GeneDomain.binary(bad)

    def test_rejects_items_exceeding_length(self):
        with pytest.raises(ValueError):
            GeneDomain(DomainKind.PERMUTATION, length=3, n_items=5)

    def test_contains(self):
        dom = GeneDomain.binary(3)
        assert dom.contains(np.array([0, 1, 0]))
        assert not dom.contains(np.array([0, 2, 0]))
        assert not dom.contains(np.array([0, 1]))

        perm = GeneDomain.permutation(3, separators=1)
        assert perm.contains(np.array([4, 2, 1, 3]))
        assert not perm.contains(np.array([1, 1, 2, 3]))

    @pytest.mark.parametrize("domain,dtype", [
        (GeneDomain.binary(300), np.uint8),
        (GeneDomain.permutation(255), np.uint8),
        (GeneDomain.permutation(250, separators=5), np.uint8),
        (GeneDomain.permutation(256), np.uint16),
    ])
    def test_dtype_holds_every_symbol(self, domain, dtype):
        assert domain.dtype == dtype
        batch = domain.sample_batch(np.random.default_rng(0), 3)
        assert batch.dtype == dtype
        assert domain.validate(batch[0].astype(np.int64)).dtype == dtype

    def test_validate_raises_with_message(self):
        with pytest.raises(ValueError, match="binary"):
            GeneDomain.binary(3).validate([0, 1, 7])
        with pytest.raises(ValueError, match="shape"):
            GeneDomain.binary(3).validate([0, 1])
        # a non-integer gene is rejected, not truncated
        with pytest.raises(ValueError, match="permutation"):
            GeneDomain.permutation(3).validate([3.0, 1.0, 2.5])


class TestSampling:
    def test_binary_sample_members(self):
        dom = GeneDomain.binary(6)
        batch = dom.sample_batch(np.random.default_rng(7), 50)
        assert batch.shape == (50, 6)
        assert np.isin(batch, (0, 1)).all()

    def test_permutation_samples_are_permutations(self):
        dom = GeneDomain.permutation(5, separators=2)
        batch = dom.sample_batch(np.random.default_rng(1), 40)
        expected = np.arange(1, 8)
        for row in batch:
            assert np.array_equal(np.sort(row), expected)

    def test_sampling_is_deterministic(self):
        dom = GeneDomain.permutation(6, separators=1)
        a = dom.sample_batch(np.random.default_rng(42), 10)
        b = dom.sample_batch(np.random.default_rng(42), 10)
        assert np.array_equal(a, b)

    def test_binary_bits_are_fair(self):
        # every locus, and all loci pooled, within 5 sigma of one half
        dom = GeneDomain.binary(8)
        batch = dom.sample_batch(np.random.default_rng(3), 40_000)
        assert (abs(batch.mean(axis=0) - 0.5) < 5 * 0.5 / np.sqrt(batch.shape[0])).all()
        assert abs(batch.mean() - 0.5) < 5 * 0.5 / np.sqrt(batch.size)

    def test_every_permutation_is_equally_likely(self):
        # all 120 orders of 5 symbols, 500 expected each: chi-square with 119
        # degrees of freedom, mean 119 and sd sqrt(238), below 5 sigma
        batch = GeneDomain.permutation(5).sample_batch(np.random.default_rng(4), 60_000)
        orders, counts = np.unique(batch, axis=0, return_counts=True)
        assert len(orders) == 120
        expected = batch.shape[0] / 120
        assert ((counts - expected) ** 2 / expected).sum() < 119 + 5 * np.sqrt(2 * 119)
