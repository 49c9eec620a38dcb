"""On-chain programs: the RA registry interface and the task contract.

These are the two on-chain components of Fig. 3: the registry contract
publishes the RA's public material (the system master public key /
registration-tree root), and each crowdsourcing task is its own
:class:`~repro.contracts.task.TaskContract` implementing Algorithm 1.
"""

from repro.contracts.marketplace import MarketplaceContract
from repro.contracts.registry import RegistryContract
from repro.contracts.task import TaskContract

__all__ = ["MarketplaceContract", "RegistryContract", "TaskContract"]
