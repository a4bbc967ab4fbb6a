"""Shared run-engine command-line flags.

Every CLI that can touch the run engine — ``repro-experiments``,
``repro-obs``, ``repro-chaos``, ``repro-serve`` — accepts the *same*
engine knobs with the *same* documentation, declared once here and
turned into the same typed :class:`~repro.exec.context.RunContext` by
:func:`context_from_args`.
A flag behaving differently across tools (or existing on one and not
another) is a bug in this module, not a per-tool quirk.

Usage::

    parser = argparse.ArgumentParser(...)
    add_engine_arguments(parser)
    args = parser.parse_args(argv)
    ctx = context_from_args(args, obs_dir=...)   # overrides win
"""

from __future__ import annotations

import argparse

from repro.exec.context import BACKENDS, CACHE_LAYOUTS, RunContext


def add_engine_arguments(parser: argparse.ArgumentParser,
                         ) -> argparse._ArgumentGroup:
    """Attach the shared engine flag group to ``parser``; returns the
    group so callers can append tool-specific execution flags to it."""
    group = parser.add_argument_group(
        "run engine",
        "execution policy shared by every repro CLI (one typed "
        "RunContext behind identical flags)")
    group.add_argument("--jobs", type=int, default=1, metavar="N",
                       help="worker processes for fresh simulations "
                            "(default 1 = serial; results are "
                            "bit-exact either way)")
    group.add_argument("--backend", default="reference",
                       choices=BACKENDS,
                       help="simulation backend: the reference "
                            "cycle-level machine (default) or the "
                            "two-phase fast backend (bit-exact by "
                            "contract; obs runs fall back to the "
                            "reference)")
    group.add_argument("--cache-dir", default=None, metavar="DIR",
                       help="persistent result cache directory; warm "
                            "reruns skip simulation entirely")
    group.add_argument("--cache-layout", default="flat",
                       choices=CACHE_LAYOUTS,
                       help="on-disk layout under --cache-dir: 'flat' "
                            "(one directory of entries, the CLI "
                            "default) or 'cas' (the sharded "
                            "content-addressed store repro-serve "
                            "uses; entry bytes are identical)")
    group.add_argument("--no-cache", action="store_true",
                       help="bypass the on-disk result cache")
    group.add_argument("--refresh", action="store_true",
                       help="ignore existing cache entries and "
                            "overwrite them with fresh runs")
    group.add_argument("--timeout", type=float, default=None,
                       metavar="SECONDS",
                       help="per-job wall-clock timeout (pooled mode "
                            "only; a hung worker is killed and the "
                            "job retried)")
    group.add_argument("--retries", type=int, default=2, metavar="N",
                       help="re-attempts per failed job before giving "
                            "up on it (default 2)")
    return group


def validate_engine_args(parser: argparse.ArgumentParser,
                         args: argparse.Namespace) -> None:
    """Uniform early validation with uniform error text."""
    if args.jobs < 1:
        parser.error("--jobs must be >= 1")
    if args.retries < 0:
        parser.error("--retries must be >= 0")
    if args.timeout is not None and args.timeout <= 0:
        parser.error("--timeout must be positive")


def context_from_args(args: argparse.Namespace,
                      **overrides) -> RunContext:
    """The :class:`RunContext` the shared flags describe.  Keyword
    ``overrides`` (e.g. ``obs_dir=...``, ``faults=...``) win over the
    flag-derived fields."""
    fields = dict(
        backend=args.backend,
        cache_dir=args.cache_dir,
        cache_layout=args.cache_layout,
        use_cache=not args.no_cache,
        refresh=args.refresh,
        jobs=args.jobs,
        timeout=args.timeout,
        retries=args.retries,
    )
    fields.update(overrides)
    return RunContext(**fields)
