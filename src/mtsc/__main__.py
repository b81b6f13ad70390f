"""`python -m mtsc`: the command line."""
import sys

from .cli import main

sys.exit(main())
