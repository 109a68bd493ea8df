"""Tests for DH key exchange, sealed boxes, and attestation."""

import hashlib
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.secagg import (
    AttestationError,
    DH_GENERATOR,
    DH_PRIME,
    DHKeyPair,
    SealError,
    SigningAuthority,
    hash_binary,
    hash_params,
    open_sealed,
    seal,
    shared_key,
)
from repro.secagg import dh
from repro.utils import child_rng

SRC = Path(__file__).resolve().parents[1] / "src"


class TestDiffieHellman:
    def test_key_agreement(self):
        a = DHKeyPair.generate(child_rng(0, "dh-a"))
        b = DHKeyPair.generate(child_rng(0, "dh-b"))
        assert shared_key(a.private, b.public) == shared_key(b.private, a.public)

    def test_different_pairs_different_keys(self):
        a = DHKeyPair.generate(child_rng(0, "dh-a"))
        b = DHKeyPair.generate(child_rng(0, "dh-b"))
        c = DHKeyPair.generate(child_rng(0, "dh-c"))
        assert shared_key(a.private, b.public) != shared_key(a.private, c.public)

    def test_public_value_in_group(self):
        pair = DHKeyPair.generate(child_rng(1, "dh"))
        assert 1 < pair.public < DH_PRIME

    def test_degenerate_public_rejected(self):
        pair = DHKeyPair.generate(child_rng(2, "dh"))
        for bad in (0, 1, DH_PRIME - 1, DH_PRIME):
            with pytest.raises(ValueError):
                shared_key(pair.private, bad)

    def test_deterministic_generation(self):
        p1 = DHKeyPair.generate(child_rng(3, "dh"))
        p2 = DHKeyPair.generate(child_rng(3, "dh"))
        assert p1.private == p2.private and p1.public == p2.public

    def test_repr_hides_private(self):
        pair = DHKeyPair.generate(child_rng(4, "dh"))
        assert hex(pair.private)[3:10] not in repr(pair)

    def test_shared_key_is_32_bytes(self):
        a = DHKeyPair.generate(child_rng(5, "dh-a"))
        b = DHKeyPair.generate(child_rng(5, "dh-b"))
        assert len(shared_key(a.private, b.public)) == 32


class TestFixedBaseTable:
    """``DHKeyPair.generate``'s table path is bit-identical to builtin ``pow``."""

    # sha256 over the 256-byte big-endian ``public`` of
    # ``DHKeyPair.generate(child_rng(s, "dh"))`` for s in 0..31, computed
    # with builtin ``pow`` before the table existed.  Any change to these
    # bits would change every secure run and its cached sweep results.
    KNOWN_PUBLICS_SHA256 = "b5d37e34c2d45ece0eb7436a4fb648856ed96b747b2fddf7e0b8d801abe61a06"

    def test_edge_exponents_match_pow(self):
        # Single bits on each side of every window boundary, and the
        # all-ones runs below them, probe how digits split across rows.
        edges = range(dh._COMB_WINDOW, dh._EXPONENT_BITS, dh._COMB_WINDOW)
        bits = [b for e in edges for b in (e - 1, e)]
        exponents = [0, 1, 2**255, 2**256 - 1]
        exponents += [1 << b for b in bits] + [(1 << b) - 1 for b in bits]
        wrong = [e for e in exponents if dh._pow_generator(e) != pow(DH_GENERATOR, e, DH_PRIME)]
        assert wrong == []

    @settings(max_examples=200, deadline=None)
    @given(st.integers(0, 2**256 - 1))
    def test_matches_pow(self, exponent):
        assert dh._pow_generator(exponent) == pow(DH_GENERATOR, exponent, DH_PRIME)

    @pytest.mark.parametrize("exponent", [-1, -(2**255), 2**256, 2**300 + 7])
    def test_out_of_range_exponents_fall_back_to_pow(self, exponent, monkeypatch):
        def no_table():
            raise AssertionError("the table must not be read")

        monkeypatch.setattr(dh, "_generator_table", no_table)
        assert dh._pow_generator(exponent) == pow(DH_GENERATOR, exponent, DH_PRIME)

    def test_known_answer_digest(self):
        digest = hashlib.sha256()
        for seed in range(32):
            pair = DHKeyPair.generate(child_rng(seed, "dh"))
            digest.update(pair.public.to_bytes(256, "big"))
        assert digest.hexdigest() == self.KNOWN_PUBLICS_SHA256

    def test_table_fits_its_byte_budget(self):
        table = dh._generator_table()
        assert len(table) == -(-dh._EXPONENT_BITS // dh._COMB_WINDOW)
        size = sys.getsizeof(table) + sum(
            sys.getsizeof(row) + sum(sys.getsizeof(v) for v in row) for row in table
        )
        assert size <= 1 << 20

    def test_table_is_lazy_and_shared_by_a_run(self):
        # A fresh interpreter: importing and building a secure deployment
        # must not pay for the table; the first generate does, once, and
        # every TSA, client and shard of a later run reads that object.
        script = textwrap.dedent(
            """
            from repro.api import Deployment, ScenarioSpec
            from repro.secagg import DHKeyPair, dh
            from repro.utils import child_rng

            assert dh._fixed_base_table is None, "built at import"
            deployment = Deployment.from_spec(ScenarioSpec.from_dict({
                "population": {"n_devices": 100},
                "tasks": [{"name": "t", "mode": "async", "concurrency": 8,
                           "aggregation_goal": 4, "model_size_bytes": 1000}],
                "plane": {"name": "secure_sharded", "num_shards": 2},
                "execution": {"t_end_s": 30.0, "seed": 0},
            }))
            deployment.build()
            assert dh._fixed_base_table is None, "built by Deployment.build()"
            DHKeyPair.generate(child_rng(0, "dh"))
            table = dh._fixed_base_table
            assert table is not None
            result = deployment.run()
            assert any(p.outcome.value == "aggregated" for p in result.trace.participations)
            assert dh._fixed_base_table is table, "table rebuilt during the run"
            """
        )
        path = [str(SRC)] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(path))
        proc = subprocess.run(
            [sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=300
        )
        assert proc.returncode == 0, proc.stderr


class TestSealedBox:
    KEY = b"k" * 32

    def test_roundtrip(self):
        box = seal(self.KEY, b"sixteen byte msg", seq=3)
        assert open_sealed(self.KEY, box) == b"sixteen byte msg"

    def test_ciphertext_differs_from_plaintext(self):
        box = seal(self.KEY, b"sixteen byte msg")
        assert box.ciphertext != b"sixteen byte msg"

    def test_wrong_key_rejected(self):
        box = seal(self.KEY, b"payload")
        with pytest.raises(SealError):
            open_sealed(b"x" * 32, box)

    def test_tampered_ciphertext_rejected(self):
        box = seal(self.KEY, b"payload")
        bad = box.tampered_with(ciphertext=bytes([box.ciphertext[0] ^ 1]) + box.ciphertext[1:])
        with pytest.raises(SealError):
            open_sealed(self.KEY, bad)

    def test_tampered_tag_rejected(self):
        box = seal(self.KEY, b"payload")
        bad = box.tampered_with(tag=bytes([box.tag[0] ^ 1]) + box.tag[1:])
        with pytest.raises(SealError):
            open_sealed(self.KEY, bad)

    def test_sequence_number_bound(self):
        box = seal(self.KEY, b"payload", seq=1)
        replayed = box.tampered_with(seq=2)
        with pytest.raises(SealError):
            open_sealed(self.KEY, replayed)

    def test_distinct_sequences_distinct_ciphertexts(self):
        b1 = seal(self.KEY, b"payload", seq=1)
        b2 = seal(self.KEY, b"payload", seq=2)
        assert b1.ciphertext != b2.ciphertext

    def test_empty_payload(self):
        box = seal(self.KEY, b"")
        assert open_sealed(self.KEY, box) == b""

    def test_long_payload_spans_keystream_blocks(self):
        msg = bytes(range(256)) * 2
        box = seal(self.KEY, msg)
        assert open_sealed(self.KEY, box) == msg

    def test_invalid_args(self):
        with pytest.raises(ValueError):
            seal(b"short", b"x")
        with pytest.raises(ValueError):
            seal(self.KEY, b"x", seq=-1)


class TestAttestation:
    def test_issue_and_verify(self):
        auth = SigningAuthority()
        bh, ph = hash_binary(b"bin"), hash_params(t=5)
        quote = auth.issue(bh, ph, b"payload")
        auth.verify(quote, bh, ph)  # no raise

    def test_forged_signature_rejected(self):
        auth = SigningAuthority()
        rogue = SigningAuthority(secret=b"not-intel")
        bh, ph = hash_binary(b"bin"), hash_params(t=5)
        quote = rogue.issue(bh, ph, b"payload")
        with pytest.raises(AttestationError, match="signature"):
            auth.verify(quote, bh, ph)

    def test_wrong_binary_rejected(self):
        auth = SigningAuthority()
        bh, ph = hash_binary(b"bin"), hash_params(t=5)
        quote = auth.issue(bh, ph, b"payload")
        with pytest.raises(AttestationError, match="binary"):
            auth.verify(quote, hash_binary(b"evil-bin"), ph)

    def test_wrong_params_rejected(self):
        # The server claims different public parameters than were attested
        # — e.g. a lower threshold t to weaken privacy.
        auth = SigningAuthority()
        bh = hash_binary(b"bin")
        quote = auth.issue(bh, hash_params(t=100), b"payload")
        with pytest.raises(AttestationError, match="parameter"):
            auth.verify(quote, bh, hash_params(t=1))

    def test_payload_covered_by_signature(self):
        # Swapping the DH initial message inside a quote must break it.
        from dataclasses import replace

        auth = SigningAuthority()
        bh, ph = hash_binary(b"bin"), hash_params(t=5)
        quote = auth.issue(bh, ph, b"dh-public-A")
        swapped = replace(quote, payload=b"dh-public-EVIL")
        with pytest.raises(AttestationError):
            auth.verify(swapped, bh, ph)

    def test_params_hash_canonical_order(self):
        assert hash_params(a=1, b=2) == hash_params(b=2, a=1)
        assert hash_params(a=1) != hash_params(a=2)

    def test_binary_hash_distinct(self):
        assert hash_binary(b"v1") != hash_binary(b"v2")
