"""``python -m modlab``: the ``modlab`` command, for a checkout run with ``PYTHONPATH=src``."""

from .cli import main

if __name__ == "__main__":  # importing the module, as a walk over the package does, runs nothing
    main()
