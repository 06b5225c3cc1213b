"""``python -m hyperbetti``: the command line of ``hyperbetti.cli``."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
