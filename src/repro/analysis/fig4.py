"""Fig. 4: the cost of anonymity — attestation-generation time.

The paper generates common-prefix-linkable anonymous attestations 12
times on each of two machines (≈78 s on the 3.1 GHz PC-A, ≈62 s on the
3.6 GHz PC-B — a clock-speed ratio) and shows the distribution as a box
plot.  This harness repeats the 12-run methodology on the current
machine and renders the same five-number summary; the paper's two-box
comparison reduces to a constant CPU-frequency ratio recorded in
EXPERIMENTS.md.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import List

from repro.profiles import SecurityProfile, get_profile
from repro.anonauth import AnonymousAuthScheme, UserKeyPair, setup as auth_setup
from repro.core.metrics import BoxStats
from repro.errors import VerificationError

#: Paper-reported medians (seconds).
PAPER_PC_A_SECONDS = 78.0
PAPER_PC_B_SECONDS = 62.0

#: Number of experiments behind the paper's box plot.
PAPER_RUN_COUNT = 12


@dataclass
class Fig4Result:
    """The measured distribution behind the box plot."""

    profile: str
    backend: str
    samples_seconds: List[float]
    stats: BoxStats

    def render(self) -> str:
        lines = [
            "=" * 96,
            "FIG. 4 — time to generate common-prefix-linkable anonymous "
            f"attestations ({self.stats.count} runs, {self.profile} profile, "
            f"{self.backend} backend)",
            "=" * 96,
            f"measured: {self.stats.render()}",
            f"paper:    median ≈ {PAPER_PC_A_SECONDS:.0f}s @ 3.1GHz PC-A, "
            f"≈ {PAPER_PC_B_SECONDS:.0f}s @ 3.6GHz PC-B "
            f"(ratio {PAPER_PC_A_SECONDS / PAPER_PC_B_SECONDS:.2f}x, 12 runs each)",
            _ascii_box(self.stats),
            "=" * 96,
        ]
        return "\n".join(lines)


def _ascii_box(stats: BoxStats, width: int = 72) -> str:
    """A tiny ASCII rendition of the box plot."""
    span = max(stats.maximum - stats.minimum, 1e-9)

    def pos(value: float) -> int:
        return int((value - stats.minimum) / span * (width - 1))

    line = [" "] * width
    for index in range(pos(stats.q1), pos(stats.q3) + 1):
        line[index] = "="
    line[pos(stats.minimum)] = "|"
    line[pos(stats.maximum)] = "|"
    line[pos(stats.median)] = "#"
    return (
        f"[{stats.minimum:.2f}s] " + "".join(line) + f" [{stats.maximum:.2f}s]"
        "   (| min/max, = IQR, # median)"
    )


def run_fig4(
    profile: SecurityProfile | str = "bench",
    backend_name: str = "groth16",
    cert_mode: str = "merkle",
    runs: int = PAPER_RUN_COUNT,
    seed: bytes = b"fig4",
    verbose: bool = False,
) -> Fig4Result:
    """Generate ``runs`` attestations and summarize the timing distribution."""
    profile = get_profile(profile) if isinstance(profile, str) else profile
    params, authority = auth_setup(
        profile=profile, cert_mode=cert_mode, backend_name=backend_name, seed=seed
    )
    scheme = AnonymousAuthScheme(params)
    user = UserKeyPair.generate(params.mimc, seed=seed + b"user")
    certificate = authority.register("fig4-user", user.public_key)
    commitment = authority.registry_commitment()
    samples: List[float] = []
    for run in range(runs):
        # A different message each run (as in repeated real submissions).
        message = b"\xf4" * 32 + b"fig4-run-%d" % run
        started = time.perf_counter()
        attestation = scheme.auth(message, user, certificate, commitment)
        elapsed = time.perf_counter() - started
        samples.append(elapsed)
        if verbose:
            print(f"[fig4] run {run + 1}/{runs}: {elapsed:.2f}s", flush=True)
        if not scheme.verify(message, attestation, commitment):
            raise VerificationError(f"fig4 run {run}: attestation does not verify")
    return Fig4Result(
        profile=profile.name,
        backend=backend_name,
        samples_seconds=samples,
        stats=BoxStats.from_samples(samples),
    )
