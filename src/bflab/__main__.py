"""`python -m bflab ...` runs the command line of `bflab.cli`."""

import sys

from .cli import main

sys.exit(main())
