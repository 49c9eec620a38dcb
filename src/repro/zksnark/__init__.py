"""From-scratch zk-SNARK stack.

The paper uses libsnark (BCTV14) embedded in a modified EVM.  This
package reproduces the same architecture with a Groth16-style
preprocessing SNARK implemented from first principles:

- :mod:`repro.zksnark.field` — prime-field arithmetic (BN128 scalar field).
- :mod:`repro.zksnark.r1cs` / :mod:`repro.zksnark.circuit` — rank-1
  constraint systems and a gadget-friendly builder DSL.
- :mod:`repro.zksnark.polynomial` / :mod:`repro.zksnark.qap` — R1CS →
  quadratic arithmetic program over a radix-2 root-of-unity domain.
- :mod:`repro.zksnark.bn128` — the BN128 pairing group (FQ/FQ2/FQ12
  tower, optimal-ate pairing) used by Ethereum's SNARK precompiles.
- :mod:`repro.zksnark.groth16` — trusted setup, prover, verifier.
- :mod:`repro.zksnark.mock` — a fast backend implementing the *ideal*
  SNARK functionality, for protocol-level tests and large simulations.
"""

from repro.zksnark.backend import CircuitDefinition, KeyPair, Proof, ProvingBackend, get_backend
from repro.zksnark.circuit import ConstraintSystem, LinearCombination, Variable
from repro.zksnark.field import FR, PrimeField
from repro.zksnark.groth16 import Groth16Backend
from repro.zksnark.mock import MockBackend
from repro.zksnark.service import ProvingService

__all__ = [
    "CircuitDefinition",
    "KeyPair",
    "Proof",
    "ProvingBackend",
    "get_backend",
    "ConstraintSystem",
    "LinearCombination",
    "Variable",
    "FR",
    "PrimeField",
    "Groth16Backend",
    "MockBackend",
    "ProvingService",
]
