"""Deterministic, independent random-number streams.

Simulating a population of PUF devices requires many *independent* but
*reproducible* randomness sources: one for each die's process variation,
one for each noisy evaluation, one for each protocol nonce.  Deriving all
of them from a single root seed through a hash keeps experiments exactly
repeatable while guaranteeing streams do not collide.
"""

from __future__ import annotations

import hashlib

import numpy as np


def _context_hasher(root_seed: int, *context: object):
    """The canonical hash state of a ``(root_seed, context)`` path.

    Single source of truth for the derivation-tree encoding: both the
    scalar :func:`derive_seed` and the batched
    :func:`derive_standard_normals` fast path (which ``copy()``-branches
    this state per suffix) hash identically by construction.
    """
    hasher = hashlib.sha256()
    hasher.update(str(int(root_seed)).encode())
    for item in context:
        hasher.update(b"\x00")
        hasher.update(repr(item).encode())
    return hasher


def derive_seed(root_seed: int, *context: object) -> int:
    """Derive a 64-bit child seed from a root seed and a context path.

    The context is an arbitrary tuple of hashable-as-string labels, e.g.
    ``derive_seed(42, "device", 3, "noise")``.  Distinct contexts give
    independent seeds; identical contexts always give the same seed.
    """
    return int.from_bytes(
        _context_hasher(root_seed, *context).digest()[:8], "big"
    )


def derive_rng(root_seed: int, *context: object) -> np.random.Generator:
    """A ``numpy`` Generator seeded from :func:`derive_seed`."""
    return np.random.default_rng(derive_seed(root_seed, *context))


# -- batched stream derivation ------------------------------------------
#
# Fleet-stacked compilation derives one short random draw per
# (die, component) — tens of thousands of independent streams per fleet.
# Spinning up a full ``default_rng`` per draw costs ~12us each, almost
# all of it in ``SeedSequence`` construction and generator allocation.
# The helpers below reproduce ``default_rng(seed)`` bit for bit while
# amortising that cost:
#
# * the SeedSequence entropy-mixing loops are evaluated as vectorized
#   uint32 numpy ops over the whole seed array;
# * the PCG64 state each seed would be initialised with is computed
#   directly (the documented setseq_128 seeding) and injected into one
#   reused bit generator via the public ``.state`` API.
#
# Equivalence with numpy is asserted at first use over random seeds; if
# a future numpy changed either algorithm (both are frozen by numpy's
# stream-compatibility policy), the helpers fall back to per-seed
# ``default_rng`` automatically.

_SS_INIT_A = 0x43b0d7e5
_SS_MULT_A = 0x931e8875
_SS_INIT_B = 0x8b51f9dd
_SS_MULT_B = 0x58f38ded
_SS_MIX_L = 0xca01f9dd
_SS_MIX_R = 0x4973f715
_SS_XSHIFT = 16
_U32 = 0xffffffff
_PCG_MULT = 0x2360ed051fc65da44385df649fccf645
_MASK128 = (1 << 128) - 1


def _ss_hash(value: "np.ndarray", hash_const: int) -> tuple:
    """One SeedSequence hashmix step over a vector of lanes."""
    value = value ^ np.uint32(hash_const)
    hash_const = (hash_const * _SS_MULT_A) & _U32
    value = value * np.uint32(hash_const)
    value = value ^ (value >> np.uint32(_SS_XSHIFT))
    return value, hash_const


def _ss_mix(x: "np.ndarray", y: "np.ndarray") -> "np.ndarray":
    result = np.uint32(_SS_MIX_L) * x - np.uint32(_SS_MIX_R) * y
    return result ^ (result >> np.uint32(_SS_XSHIFT))


def _seed_sequence_words(entropy_words) -> "np.ndarray":
    """Vectorized ``SeedSequence(seed).generate_state(4, uint64)``.

    ``entropy_words`` is a list of uint32 arrays (the lanes' assembled
    entropy, identical word count per lane — callers partition by word
    count).  Returns ``(lanes, 4)`` uint64.
    """
    lanes = entropy_words[0].shape[0]
    pool = []
    hash_const = _SS_INIT_A
    for i in range(4):
        source = (entropy_words[i] if i < len(entropy_words)
                  else np.zeros(lanes, dtype=np.uint32))
        hashed, hash_const = _ss_hash(source, hash_const)
        pool.append(hashed)
    for i_src in range(4):
        for i_dst in range(4):
            if i_src != i_dst:
                hashed, hash_const = _ss_hash(pool[i_src], hash_const)
                pool[i_dst] = _ss_mix(pool[i_dst], hashed)
    for i_src in range(4, len(entropy_words)):
        for i_dst in range(4):
            hashed, hash_const = _ss_hash(entropy_words[i_src], hash_const)
            pool[i_dst] = _ss_mix(pool[i_dst], hashed)
    hash_const = _SS_INIT_B
    out = np.empty((lanes, 8), dtype=np.uint32)
    for i_dst in range(8):
        data = pool[i_dst % 4] ^ np.uint32(hash_const)
        hash_const = (hash_const * _SS_MULT_B) & _U32
        data = data * np.uint32(hash_const)
        data = data ^ (data >> np.uint32(_SS_XSHIFT))
        out[:, i_dst] = data
    words = out.astype(np.uint64)
    return words[:, 0::2] | (words[:, 1::2] << np.uint64(32))


def _pcg64_states(seeds) -> list:
    """The PCG64 ``.state`` dict each seed would be initialised with."""
    seeds = [int(seed) for seed in seeds]
    lanes_lo = np.array([seed & _U32 for seed in seeds], dtype=np.uint32)
    lanes_hi = np.array([(seed >> 32) & _U32 for seed in seeds],
                        dtype=np.uint32)
    words = np.empty((len(seeds), 4), dtype=np.uint64)
    # SeedSequence assembles one uint32 word for seeds < 2**32 and two
    # words otherwise; partition lanes accordingly.
    wide = lanes_hi != 0
    if np.any(wide):
        words[wide] = _seed_sequence_words([lanes_lo[wide], lanes_hi[wide]])
    narrow = ~wide
    if np.any(narrow):
        words[narrow] = _seed_sequence_words([lanes_lo[narrow]])
    states = []
    for row in words:
        initstate = (int(row[0]) << 64) | int(row[1])
        initseq = (int(row[2]) << 64) | int(row[3])
        inc = ((initseq << 1) | 1) & _MASK128
        state = (inc + initstate) & _MASK128          # srandom step + add
        state = (state * _PCG_MULT + inc) & _MASK128  # srandom step
        states.append({
            "bit_generator": "PCG64",
            "state": {"state": state, "inc": inc},
            "has_uint32": 0,
            "uinteger": 0,
        })
    return states


_batched_normals_ok = None


def _batched_normals_self_check() -> bool:
    probe = [0, 1, 3, 2**31, 2**32 - 1, 2**32, 2**63 + 12345, 2**64 - 1,
             derive_seed(7, "self-check")]
    generator = np.random.Generator(np.random.PCG64(0))
    for seed, state in zip(probe, _pcg64_states(probe)):
        generator.bit_generator.state = state
        if generator.standard_normal() != np.random.default_rng(
                seed).standard_normal():
            return False
    return True


def derive_standard_normals(root_seed: int, prefix: tuple,
                            suffixes) -> "np.ndarray":
    """First standard-normal draw of many derived streams at once.

    Element ``i`` equals
    ``derive_rng(root_seed, *prefix, suffixes[i]).standard_normal()``
    exactly — same derived seed, same PCG64 stream, same ziggurat draw —
    with the per-stream setup amortised across the batch.  This is the
    variation-sampling fast path of the fleet-stacked compiler.
    """
    global _batched_normals_ok
    suffixes = list(suffixes)
    if _batched_normals_ok is None:
        _batched_normals_ok = _batched_normals_self_check()
    if not _batched_normals_ok:  # pragma: no cover - numpy changed
        return np.array([
            derive_rng(root_seed, *prefix, suffix).standard_normal()
            for suffix in suffixes
        ])
    hasher = _context_hasher(root_seed, *prefix)
    seeds = []
    for suffix in suffixes:
        branch = hasher.copy()
        branch.update(b"\x00")
        branch.update(repr(suffix).encode())
        seeds.append(int.from_bytes(branch.digest()[:8], "big"))
    generator = np.random.Generator(np.random.PCG64(0))
    out = np.empty(len(suffixes))
    for lane, state in enumerate(_pcg64_states(seeds)):
        generator.bit_generator.state = state
        out[lane] = generator.standard_normal()
    return out


# Fewest seeds for which :func:`derived_generators` injects batched
# states.  The batched set-up has a fixed cost (vectorized mixing over
# the lanes, plus one bit generator to reuse), so below this count a
# plain ``default_rng`` per seed is cheaper.  Measured on a 2-vCPU Xeon
# VM (numpy 2.4), drawing one 8x36 noise matrix per seed: 16 seeds cost
# 40 vs 26 us per seed batched vs plain, 32 seeds 28 vs 28, 64 seeds 21
# vs 28.
_BATCHED_GENERATORS_MIN = 32


def derived_generators(seeds):
    """Yield one ``Generator`` per seed, bit-exact with ``default_rng``.

    The per-die round path draws one noise matrix per device per round —
    thousands of short-lived generators whose ``SeedSequence``
    construction dominates the draw itself.  From 32 seeds up (the
    measured crossover, ``_BATCHED_GENERATORS_MIN``) this amortises it
    the same way :func:`derive_standard_normals` does: the PCG64 states
    of all seeds are computed vectorized up front and injected one at a
    time into a single reused bit generator, so stream ``i`` is bit-for-bit
    ``np.random.default_rng(seeds[i])``.  Fewer seeds (a one-device turn
    draws one) get a plain ``default_rng`` each, the same stream at a
    lower fixed cost.  The yielded generator object may be *reused* —
    callers must finish drawing from it before advancing.  Falls back to
    per-seed ``default_rng`` if the self-check ever fails.
    """
    global _batched_normals_ok
    seeds = [int(seed) for seed in seeds]
    batched = len(seeds) >= _BATCHED_GENERATORS_MIN
    if batched and _batched_normals_ok is None:
        _batched_normals_ok = _batched_normals_self_check()
    if not (batched and _batched_normals_ok):
        for seed in seeds:
            yield np.random.default_rng(seed)
        return
    generator = np.random.Generator(np.random.PCG64(0))
    for state in _pcg64_states(seeds):
        generator.bit_generator.state = state
        yield generator


def derive_bytes(n_bytes: int, root_seed: int, *context: object) -> bytes:
    """Derive up to 32 context-bound bytes from the same hash tree.

    The cheap path for protocol nonces and similar short tokens: one
    SHA-256 over the identical ``(root_seed, context)`` encoding
    :func:`derive_seed` uses, without spinning up a full generator.
    Distinct contexts give independent bytes; identical contexts always
    give the same bytes.
    """
    if not 0 <= n_bytes <= 32:
        raise ValueError("derive_bytes serves at most one digest (32 bytes)")
    hasher = hashlib.sha256(b"bytes:")
    hasher.update(str(int(root_seed)).encode())
    for item in context:
        hasher.update(b"\x00")
        hasher.update(repr(item).encode())
    return hasher.digest()[:n_bytes]
