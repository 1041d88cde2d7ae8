"""Equivalence suite for the fleet-stacked execution plane.

Every die's output from the stacked pass must match (rtol 1e-9) both the
per-die :class:`CompiledMesh` and the uncompiled loop path of
:meth:`PassiveScrambler.propagate`, including a die-count-1 fleet and a
ragged-environment fleet (per-die operating points).
"""

import numpy as np
import pytest

from repro.photonics.engine import CompiledMesh, stacked_ring_scan
from repro.photonics.fleet_engine import CompiledFleet
from repro.photonics.mesh import PassiveScrambler
from repro.photonics.variation import OpticalEnvironment, VariationModel

RTOL = 1e-9
N_DIES = 5


@pytest.fixture(scope="module")
def scramblers():
    model = VariationModel()
    return [
        PassiveScrambler(n_channels=8, n_stages=4, design_seed=3,
                         variation=model.sample_die(3, die))
        for die in range(N_DIES)
    ]


@pytest.fixture(scope="module")
def fleet(scramblers):
    return CompiledFleet.compile(scramblers)


@pytest.fixture(scope="module")
def meshes(scramblers):
    return [CompiledMesh.compile(s) for s in scramblers]


def random_fields(shape, seed=0):
    rng = np.random.default_rng(seed)
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


class TestStackedCompilation:
    def test_operators_match_per_die_compile(self, fleet, meshes):
        for die, mesh in enumerate(meshes):
            assert np.allclose(fleet.stage_matrices[die], mesh.stage_matrices,
                               rtol=1e-12, atol=1e-15)
            assert np.array_equal(fleet.ring_b[die], mesh.ring_b)
            assert np.array_equal(fleet.ring_a[die], mesh.ring_a)
            assert np.allclose(fleet.static_matrix[die], mesh.static_matrix,
                               rtol=1e-12, atol=1e-15)

    def test_from_meshes_matches_batched_compile(self, fleet, meshes):
        stacked = CompiledFleet.from_meshes(meshes)
        assert np.allclose(stacked.stage_matrices, fleet.stage_matrices,
                           rtol=1e-12, atol=1e-15)
        assert np.array_equal(stacked.ring_b, fleet.ring_b)

    def test_mesh_view_shares_operators(self, fleet, meshes):
        view = fleet.mesh(2)
        fields = random_fields((3, 8, 64))
        assert np.allclose(view.propagate(fields),
                           meshes[2].propagate(fields),
                           rtol=RTOL, atol=1e-12)

    def test_heterogeneous_geometry_rejected(self, scramblers):
        odd = PassiveScrambler(n_channels=4, n_stages=4, design_seed=3)
        with pytest.raises(ValueError):
            CompiledFleet.compile([scramblers[0], odd])
        with pytest.raises(ValueError):
            CompiledFleet.compile(
                [scramblers[0],
                 PassiveScrambler(n_channels=8, n_stages=4, design_seed=9)]
            )

    def test_empty_fleet_rejected(self):
        with pytest.raises(ValueError):
            CompiledFleet.compile([])

    def test_memory_accounting(self, fleet):
        total = fleet.memory_footprint_bytes()
        assert total > 0
        assert fleet.per_die_bytes() == total // N_DIES
        fleet.response_kernel(4, 64)
        assert fleet.memory_footprint_bytes() > total

    def test_memory_accounting_counts_gather_index_once(self, scramblers):
        fleet = CompiledFleet.compile(scramblers)
        operators = fleet.memory_footprint_bytes()
        h_real, h_imag, spectra, __ = fleet.response_kernel(4, 40)
        kernels = h_real.nbytes + h_imag.nbytes + spectra.nbytes
        samples = np.array([3, 17, 39])
        # The gather index depends on the sampled positions only: every
        # batch size reuses one (40, 1, 3) index.
        for batch in (1, 6):
            fleet.response_power_at(np.zeros((N_DIES, batch, 40)), samples,
                                    launch=4)
        index_bytes = 40 * samples.size * np.dtype(np.intp).itemsize
        assert fleet.memory_footprint_bytes() == \
            operators + kernels + index_bytes


class TestStackedPropagation:
    def test_matches_compiled_and_loop_paths(self, fleet, scramblers, meshes):
        fields = random_fields((N_DIES, 3, 8, 83), seed=1)
        stacked = fleet.propagate(fields)
        for die, scrambler in enumerate(scramblers):
            compiled = meshes[die].propagate(fields[die])
            loop = scrambler.propagate(fields[die])
            assert np.allclose(stacked[die], compiled, rtol=RTOL, atol=1e-12)
            assert np.allclose(stacked[die], loop, rtol=RTOL, atol=1e-12)

    def test_single_die_fleet(self, scramblers):
        fleet = CompiledFleet.compile(scramblers[:1])
        fields = random_fields((1, 2, 8, 40), seed=2)
        reference = scramblers[0].propagate(fields[0])
        assert np.allclose(fleet.propagate(fields)[0], reference,
                           rtol=RTOL, atol=1e-12)

    def test_ragged_environments(self, scramblers):
        envs = [OpticalEnvironment(temperature_c=25.0 + 7.0 * die)
                for die in range(N_DIES)]
        fleet = CompiledFleet.compile(scramblers, envs=envs)
        fields = random_fields((N_DIES, 2, 8, 48), seed=3)
        stacked = fleet.propagate(fields)
        for die, scrambler in enumerate(scramblers):
            loop = scrambler.propagate(fields[die], env=envs[die])
            assert np.allclose(stacked[die], loop, rtol=RTOL, atol=1e-12)
        nominal = CompiledFleet.compile(scramblers).propagate(fields)
        assert not np.allclose(stacked[1:], nominal[1:])

    def test_batchless_input_squeezes(self, fleet, meshes):
        fields = random_fields((N_DIES, 8, 36), seed=4)
        stacked = fleet.propagate(fields)
        assert stacked.shape == (N_DIES, 8, 36)
        for die, mesh in enumerate(meshes):
            assert np.allclose(stacked[die], mesh.propagate(fields[die]),
                               rtol=RTOL, atol=1e-12)

    def test_die_subset(self, fleet, meshes):
        subset = [3, 0]
        fields = random_fields((2, 2, 8, 44), seed=5)
        stacked = fleet.propagate(fields, dies=subset)
        for position, die in enumerate(subset):
            assert np.allclose(stacked[position],
                               meshes[die].propagate(fields[position]),
                               rtol=RTOL, atol=1e-12)

    def test_without_memory_uses_static_matrices(self):
        model = VariationModel()
        scramblers = [
            PassiveScrambler(8, 3, 11, model.sample_die(11, die),
                             with_memory=False)
            for die in range(3)
        ]
        fleet = CompiledFleet.compile(scramblers)
        fields = random_fields((3, 2, 8, 24), seed=6)
        stacked = fleet.propagate(fields)
        for die, scrambler in enumerate(scramblers):
            assert np.allclose(stacked[die], scrambler.propagate(fields[die]),
                               rtol=RTOL, atol=1e-12)

    def test_shape_validation(self, fleet):
        with pytest.raises(ValueError):
            fleet.propagate(random_fields((2, 1, 8, 16)))   # wrong die count
        with pytest.raises(ValueError):
            fleet.propagate(random_fields((N_DIES, 1, 5, 16)))  # channels


class TestResponseKernels:
    def test_modulated_response_matches_propagate(self, fleet):
        rng = np.random.default_rng(7)
        waves = rng.standard_normal((N_DIES, 2, 60))
        sparse = np.zeros((N_DIES, 2, 8, 60), dtype=np.complex128)
        sparse[:, :, 4, :] = waves
        reference = fleet.propagate(sparse)
        via_kernel = fleet.modulated_response(waves, launch=4)
        assert np.allclose(via_kernel, reference, rtol=RTOL, atol=1e-12)

    def test_response_power_at_selected_samples(self, fleet):
        rng = np.random.default_rng(8)
        waves = rng.standard_normal((N_DIES, 3, 60))
        sparse = np.zeros((N_DIES, 3, 8, 60), dtype=np.complex128)
        sparse[:, :, 4, :] = waves
        reference = np.abs(fleet.propagate(sparse)) ** 2
        samples = np.array([0, 13, 27, 58, 59])
        power = fleet.response_power_at(waves, samples, launch=4)
        assert np.allclose(power, reference[..., samples],
                           rtol=RTOL, atol=1e-12)

    def test_kernel_cache_reused(self, fleet):
        first = fleet.response_kernel(4, 60)
        again = fleet.response_kernel(4, 60)
        assert first[2] is again[2]
        other = fleet.response_kernel(4, 72)
        assert other[2] is not first[2]

    def test_kernel_subset_dies(self, fleet, meshes):
        rng = np.random.default_rng(9)
        waves = rng.standard_normal((2, 1, 52))
        subset = [4, 2]
        out = fleet.modulated_response(waves, launch=4, dies=subset)
        for position, die in enumerate(subset):
            sparse = np.zeros((1, 8, 52), dtype=np.complex128)
            sparse[:, 4, :] = waves[position]
            assert np.allclose(out[position], meshes[die].propagate(sparse),
                               rtol=RTOL, atol=1e-12)


class TestStackedRingScan:
    def test_matches_lfilter_reference(self, scramblers):
        scrambler = scramblers[0]
        mesh = CompiledMesh.compile(scrambler)
        fields = random_fields((2, 8, 64), seed=10)
        stacked = stacked_ring_scan(
            fields,
            mesh.ring_b[1, :, 0][:, np.newaxis],
            -mesh.ring_b[1, :, -1][:, np.newaxis],
            -mesh.ring_a[1, :, -1][:, np.newaxis],
            mesh.delay_samples,
        )
        for channel in range(8):
            reference = scrambler._ring(1, channel).filter(
                fields[:, channel, :]
            )
            assert np.allclose(stacked[:, channel, :], reference,
                               rtol=RTOL, atol=1e-12)

    def test_unpadded_sample_count(self, scramblers):
        scrambler = scramblers[0]
        mesh = CompiledMesh.compile(scrambler)
        fields = random_fields((1, 8, 61), seed=11)   # 61 % 4 != 0
        stacked = stacked_ring_scan(
            fields,
            mesh.ring_b[0, :, 0][:, np.newaxis],
            -mesh.ring_b[0, :, -1][:, np.newaxis],
            -mesh.ring_a[0, :, -1][:, np.newaxis],
            mesh.delay_samples,
        )
        assert stacked.shape == (1, 8, 61)
        reference = scrambler._ring(0, 0).filter(fields[:, 0, :])
        assert np.allclose(stacked[:, 0, :], reference, rtol=RTOL, atol=1e-12)
