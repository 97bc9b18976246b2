"""``python -m genfrob``: the same command as the ``genfrob`` script."""
import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
