"""exitweave: multi-exit classifiers with meta-learned sample weighting.

Submodules:

  numkit      finite checks, stable softmax/log-sum-exp/sigmoid, RNG streams
  backbone    flat-buffer dense ReLU layers; K-exit MLP with shared trunk
  wpn         weight prediction network and its analytic backward chain
  exitpolicy  budget allocation, threshold calibration, dynamic inference
  datahub     datasets (one content check), their loaders, imbalancing,
              batching, and the run config's dataset section
  trainer     the training loops (full method plus ablation variants)
  evaluate    anytime tables and budget sweeps
  checkpoint  the versioned run checkpoint
  gradcheck   finite-difference audits of the gradient chain
  cli         the `exitweave` command line tool
  serial      the document layer: format names, versions, writer and reader
  errors      the exception hierarchy

Submodules load on first use, so a program that uses a few of them (a
benchmark, a demo) does not pay for importing the rest; `cli` imports
every other module.
"""

from importlib import import_module

__version__ = "0.1.0"

_SUBMODULES = (
    "backbone",
    "checkpoint",
    "cli",
    "datahub",
    "errors",
    "evaluate",
    "exitpolicy",
    "gradcheck",
    "numkit",
    "serial",
    "trainer",
    "wpn",
)

__all__ = list(_SUBMODULES) + ["__version__"]


def __getattr__(name: str):
    if name in _SUBMODULES:
        return import_module(f".{name}", __name__)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted(__all__)
