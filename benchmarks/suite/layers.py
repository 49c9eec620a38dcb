"""Outside-in layer tracing for the benchmark suite.

The suite never edits ``src/``.  A traced rep instead wraps the public
entry points of every ``repro`` layer from here, records one span per
call on a private :class:`~repro.observability.tracer.Tracer` (the
program's own global tracer stays off, so the program behaves exactly
as in an untraced rep), and removes every wrapper when the rep ends.

From the spans under a rep's root span it derives, per entry point,
``calls``, ``self_s`` (duration minus the part covered by child spans)
and ``total_s``, and per layer the summed self time.  The root span's
own self time is the ``unattributed`` bucket, so the layers plus
``unattributed`` add up to the traced wall time.

Three rules keep the wrappers honest:

- a module function imported by name elsewhere (``keccak256``,
  ``recover_address``, ``fanout_map``) is rebound in every ``repro.*``
  namespace that holds it, not just where it is defined;
- ``functools.wraps`` copies the wrapped function's ``__dict__``, so
  contract methods keep the ``__contract_visibility__`` mark the VM
  dispatches on;
- fork-pool waits are labelled by job type: ``_KeygenJob`` maps to
  ``crypto.rsa_keygen_pool`` and any other job to ``zksnark.fanout``.
  Children record into their own copy of the tracer, so their time
  shows as the parent's wait.
"""

from __future__ import annotations

import functools
import importlib
import pkgutil
import sys
from typing import Any, Callable, Dict, List, Tuple

from repro.observability.tracer import Span, Tracer

#: Layers are the ``repro`` packages; every span name starts with one.
LAYERS = (
    "crypto", "zksnark", "anonauth", "chain", "contracts", "serialization", "core",
)

#: The span covering one rep's timed section; its self time is unattributed.
ROOT_SPAN = "suite.timed"

#: (span name, "module" or "module:Class", attribute) for fixed entry points.
#: Backend and contract methods are discovered at install time.
ENTRY_POINTS: Tuple[Tuple[str, str, str], ...] = (
    ("crypto.keccak256", "repro.crypto.hashing", "keccak256"),
    ("crypto.ecdsa_keygen", "repro.crypto.ecdsa:ECDSAKeyPair", "__init__"),
    ("crypto.ecdsa_sign", "repro.crypto.ecdsa:ECDSAKeyPair", "sign"),
    ("crypto.ecdsa_recover", "repro.crypto.ecdsa", "recover_address"),
    ("crypto.rsa_keygen", "repro.crypto.rsa:RSAKeyPair", "generate"),
    ("crypto.rsa_encrypt", "repro.crypto.rsa:RSAPublicKey", "encrypt"),
    ("crypto.rsa_decrypt", "repro.crypto.rsa:RSAKeyPair", "decrypt"),
    ("anonauth.setup", "repro.anonauth.scheme", "setup"),
    ("anonauth.auth", "repro.anonauth.scheme:AnonymousAuthScheme", "auth"),
    ("anonauth.verify", "repro.anonauth.scheme:AnonymousAuthScheme", "verify"),
    ("anonauth.auth_tag_link", "repro.anonauth.scheme:AnonymousAuthScheme", "auth_tag_link"),
    ("anonauth.verify_tag_link", "repro.anonauth.scheme:AnonymousAuthScheme", "verify_tag_link"),
    ("chain.mine_block", "repro.chain.network:Testnet", "mine_block"),
    ("chain.mine_until", "repro.chain.network:Testnet", "mine_until"),
    ("chain.fund", "repro.chain.network:Testnet", "fund"),
    ("chain.fund_async", "repro.chain.network:Testnet", "fund_async"),
    ("chain.mine_block", "repro.chain.sharding:ShardedChain", "mine_block"),
    ("chain.mine_until", "repro.chain.sharding:ShardedChain", "mine_until"),
    ("chain.fund", "repro.chain.sharding:ShardedChain", "fund"),
    ("chain.fund_async", "repro.chain.sharding:ShardedChain", "fund_async"),
    ("chain.create_block", "repro.chain.node:Node", "create_block"),
    ("chain.import_block", "repro.chain.node:Node", "import_block"),
    ("chain.submit_transaction", "repro.chain.node:Node", "submit_transaction"),
    ("chain.call", "repro.chain.node:Node", "call"),
    ("chain.execute_tx", "repro.chain.vm:VM", "execute_transaction"),
    ("chain.state_root", "repro.chain.state:WorldState", "state_root"),
    ("chain.state_root", "repro.chain.state:LaneState", "state_root"),
    ("chain.state_snapshot", "repro.chain.state:WorldState", "snapshot"),
    ("chain.account_clone", "repro.chain.account:Account", "clone"),
    ("chain.mempool_add", "repro.chain.mempool:Mempool", "add"),
    ("chain.mempool_select", "repro.chain.mempool:Mempool", "select_for_block"),
    ("chain.txsender_broadcast", "repro.chain.txsender:TxSender", "broadcast"),
    ("chain.txsender_service", "repro.chain.txsender:TxSender", "service"),
    ("chain.txsender_send", "repro.chain.txsender:TxSender", "send"),
    ("chain.txsender_send_signed", "repro.chain.txsender:TxSender", "send_signed"),
    ("serialization.encode", "repro.serialization", "encode"),
    ("serialization.decode", "repro.serialization", "decode"),
    ("core.engine", "repro.core.engine:ProtocolEngine", "run"),
    ("core.run_open_market", "repro.core.engine", "run_open_market"),
    ("core.requester_publish_task", "repro.core.requester:Requester", "publish_task"),
    ("core.requester_prepare_publish", "repro.core.requester:Requester", "prepare_publish"),
    ("core.requester_complete_publish", "repro.core.requester:Requester", "complete_publish"),
    ("core.requester_evaluate_and_reward", "repro.core.requester:Requester", "evaluate_and_reward"),
    ("core.requester_prepare_reward", "repro.core.requester:Requester", "prepare_reward"),
    ("core.requester_reward_transaction", "repro.core.requester:Requester", "reward_transaction"),
    ("core.requester_post_listing", "repro.core.requester:Requester", "post_listing"),
    ("core.requester_match_listing", "repro.core.requester:Requester", "match_listing"),
    ("core.requester_attach_listing_task", "repro.core.requester:Requester", "attach_listing_task"),
    ("core.requester_open_dispute", "repro.core.requester:Requester", "open_dispute"),
    ("core.requester_settle_listing", "repro.core.requester:Requester", "settle_listing"),
    ("core.worker_submit_answer", "repro.core.worker:Worker", "submit_answer"),
    ("core.worker_prepare_submission", "repro.core.worker:Worker", "prepare_submission"),
    ("core.worker_complete_submission", "repro.core.worker:Worker", "complete_submission"),
    ("core.worker_discover_listings", "repro.core.worker:Worker", "discover_listings"),
    ("core.worker_place_bid", "repro.core.worker:Worker", "place_bid"),
    ("core.worker_report_work", "repro.core.worker:Worker", "report_work"),
    ("core.arbiter_rule", "repro.core.market:Arbiter", "rule"),
)

#: Proving-backend methods wrapped on every backend class that defines them.
BACKEND_METHODS = ("setup", "prove", "verify", "prove_many", "batch_verify")
BACKEND_CLASSES = (
    "repro.zksnark.backend:ProvingBackend",
    "repro.zksnark.mock:MockBackend",
    "repro.zksnark.groth16:Groth16Backend",
    "repro.zksnark.service:ProvingService",
)


def _resolve(owner: str) -> Any:
    module_name, _, class_name = owner.partition(":")
    module = importlib.import_module(module_name)
    return getattr(module, class_name) if class_name else module


def _repro_modules() -> List[Any]:
    return [
        module
        for name, module in list(sys.modules.items())
        if module is not None and (name == "repro" or name.startswith("repro."))
    ]


def _import_all_repro_modules() -> None:
    """Import every ``repro`` module so by-name imports exist to rebind."""
    import repro

    for info in pkgutil.walk_packages(repro.__path__, "repro."):
        importlib.import_module(info.name)


class Instrumentation:
    """Installs and removes the layer wrappers around one traced rep."""

    def __init__(self) -> None:
        self.tracer = Tracer()
        self._patches: List[Tuple[Any, str, Any]] = []

    # ----- install / uninstall ---------------------------------------------------

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("instrumentation is already installed")
        _import_all_repro_modules()
        for name, owner, attr in ENTRY_POINTS:
            target = _resolve(owner)
            if isinstance(target, type):
                self._wrap_attribute(target, attr, name)
            else:
                original = getattr(target, attr)
                self._rebind(original, self._spanned(original, name))
        for owner in BACKEND_CLASSES:
            cls = _resolve(owner)
            for method in BACKEND_METHODS:
                raw = cls.__dict__.get(method)
                if raw is not None and not getattr(raw, "__isabstractmethod__", False):
                    self._wrap_attribute(cls, method, f"zksnark.{method}")
        from repro.chain.contract import ContractRegistry

        for contract_name in ContractRegistry.known():
            cls = ContractRegistry.resolve(contract_name)
            for attr, raw in list(vars(cls).items()):
                if attr == "init" or hasattr(raw, "__contract_visibility__"):
                    self._wrap_attribute(cls, attr, f"contracts.{cls.__name__}.{attr}")
        from repro.zksnark import backend

        self._rebind(backend.fanout_map, self._fanout(backend.fanout_map))
        self.tracer.enable()

    def uninstall(self) -> None:
        self.tracer.disable()
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def __enter__(self) -> "Instrumentation":
        self.install()
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.uninstall()

    # ----- wrappers ----------------------------------------------------------------

    def _spanned(self, fn: Callable, name: str) -> Callable:
        span = self.tracer.span

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            with span(name):
                return fn(*args, **kwargs)

        return wrapper

    def _fanout(self, fn: Callable) -> Callable:
        span = self.tracer.span

        @functools.wraps(fn)
        def fanout_map(worker, items, jobs, chunked):
            job = type(worker).__name__
            label = "crypto.rsa_keygen_pool" if job == "_KeygenJob" else "zksnark.fanout"
            with span(label, job=job, items=len(items)):
                return fn(worker, items, jobs, chunked)

        return fanout_map

    def _wrap_attribute(self, cls: type, attr: str, name: str) -> None:
        raw = cls.__dict__[attr]
        if isinstance(raw, (classmethod, staticmethod)):
            wrapped: Any = type(raw)(self._spanned(raw.__func__, name))
        else:
            wrapped = self._spanned(raw, name)
        setattr(cls, attr, wrapped)
        self._patches.append((cls, attr, raw))

    def _rebind(self, original: Callable, wrapper: Callable) -> None:
        for module in _repro_modules():
            for key, value in list(vars(module).items()):
                if value is original:
                    setattr(module, key, wrapper)
                    self._patches.append((module, key, original))

    # ----- spans -------------------------------------------------------------------

    def root(self, **attrs: Any) -> Span:
        """The span one rep's timed section runs under."""
        return self.tracer.span(ROOT_SPAN, **attrs)

    def take_spans(self) -> List[Span]:
        """Finished spans since the last call (the buffer is cleared)."""
        spans = self.tracer.finished_spans()
        self.tracer.reset()
        return spans


def analyze(spans: List[Span]) -> Dict[str, Any]:
    """Per-entry and per-layer times for the spans under one root span.

    ``calls`` and ``total_s`` count only the outermost span of a name in
    any call chain (a backend's ``prove_many`` that defers to its base
    class is one call, not two); ``self_s`` sums every span's own time,
    which never double-counts.
    """
    roots = [span for span in spans if span.name == ROOT_SPAN]
    if len(roots) != 1:
        raise ValueError(f"expected one {ROOT_SPAN!r} span, found {len(roots)}")
    root = roots[0]
    children: Dict[int, List[Span]] = {}
    for span in spans:
        children.setdefault(span.parent_id, []).append(span)

    entries: Dict[str, Dict[str, float]] = {}
    #: Items per fan-out job type whose call recorded no child span: for
    #: jobs that call a wrapped entry (proving, RSA keygen) this means
    #: they ran in forked children, invisible to this tracer.
    forked_items: Dict[str, int] = {}
    unattributed = 0.0
    stack = [(root, frozenset())]
    while stack:
        span, outer = stack.pop()
        kids = children.get(span.span_id, ())
        self_s = span.duration - sum(kid.duration for kid in kids)
        if span is root:
            unattributed = self_s
        else:
            stats = entries.setdefault(span.name, {"calls": 0, "self_s": 0.0, "total_s": 0.0})
            stats["self_s"] += self_s
            if span.name not in outer:
                stats["calls"] += 1
                stats["total_s"] += span.duration
            if "job" in span.attrs and not kids:
                job = span.attrs["job"]
                forked_items[job] = forked_items.get(job, 0) + span.attrs["items"]
        inner = outer | {span.name}
        stack.extend((kid, inner) for kid in kids)

    wall = root.duration
    layers = {layer: 0.0 for layer in LAYERS}
    for name, stats in entries.items():
        layers[name.split(".", 1)[0]] += stats["self_s"]
    return {
        "wall_s": wall,
        "unattributed_s": unattributed,
        "attributed_ratio": 1.0 - unattributed / wall if wall > 0 else 0.0,
        "layers": layers,
        "entries": entries,
        "forked_items": forked_items,
    }
