"""``python -m repro.experiments``: the ``hermes-experiments`` CLI."""

from repro.experiments.runner import main

if __name__ == "__main__":
    raise SystemExit(main())
