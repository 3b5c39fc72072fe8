"""Command-line entry point: python -m choosekit ARGS is the choosekit command."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
