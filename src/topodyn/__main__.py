"""``python -m topodyn``: the same CLI as the ``topodyn`` command."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
