"""The engine's command line: five options, parsed without argparse.

    engine --input job.cfg [--output out.json] [--format table|json|csv]
           [--truncation N] [--check]

A malformed command line raises UsageError, which cli.main prints under
USAGE with an ``engine: error:`` line; -h or --help asks for HELP.
argparse is not used: it loads gettext, whose language lookup loads
locale, for five options.
"""

from __future__ import annotations

from .config import FORMATS

USAGE = """\
usage: engine [-h] --input INPUT [--output OUTPUT] [--format {table,json,csv}]
              [--truncation TRUNCATION] [--check]
"""

HELP = USAGE + """
exact cohomology of group quotients via finite invariant complexes

options:
  -h, --help            show this help message and exit
  --input INPUT         job file to run
  --output OUTPUT       write the report here instead of stdout
  --format {table,json,csv}
                        report format (default: job file setting, else table)
  --truncation TRUNCATION
                        override the audit truncation of a torus job
  --check               run the redundant cross-checks; mismatch exits 3
"""


class UsageError(Exception):
    """A malformed command line; main prints it under the usage."""


def _is_option(token: str) -> bool:
    # a negative integer is a value, so --truncation -1 reaches the
    # configuration check
    return token.startswith("-") and not token[1:].isdigit()


def parse_args(argv: list[str]) -> dict | None:
    """The options of a command line, or None when it asks for help.

    Each option is ``--opt value`` or ``--opt=value``, the last of a
    repeated one wins, and every malformed token raises UsageError.
    """
    args = {"input": None, "output": None, "format": None,
            "truncation": None, "check": False}
    tokens = iter(argv)
    for token in tokens:
        if token in ("-h", "--help"):
            return None
        option, explicit, value = token.partition("=")
        key = option[2:]
        if option == "--check":
            if explicit:
                raise UsageError(
                    "argument --check: ignored explicit argument %r" % value)
            args["check"] = True
            continue
        if not option.startswith("--") or key not in args:
            raise UsageError("unrecognized arguments: %s" % token)
        if not explicit:
            value = next(tokens, None)
            if value is None or _is_option(value):
                raise UsageError("argument %s: expected one argument" % option)
        if key == "format" and value not in FORMATS:
            raise UsageError(
                "argument --format: invalid choice: %r (choose from %s)"
                % (value, ", ".join(repr(f) for f in FORMATS)))
        if key == "truncation":
            try:
                value = int(value)
            except ValueError:
                raise UsageError(
                    "argument --truncation: invalid int value: %r" % value
                ) from None
        args[key] = value
    if args["input"] is None:
        raise UsageError("the following arguments are required: --input")
    return args
