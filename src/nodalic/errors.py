"""Exception types shared across the package.

The CLI maps `InputError` to exit code 1 and `PreconditionError` to exit
code 2, so the split matters: malformed data (bad schema, shape mismatch,
unparsable value) versus well-formed data that violates a documented
contract (non-skew pairing, zero vanishing cycle, duplicate point, ...).
"""


class InputError(ValueError):
    """Input could not be understood: parse failure or shape mismatch."""


class PreconditionError(ValueError):
    """Structurally valid input violating a named contract."""


def check_int(value, name, minimum=None, maximum=None):
    """Require a plain int in the given range, else raise InputError.

    bool is excluded deliberately: True counting as 1 hides call-site
    mistakes in code that is all about exact counts.
    """
    if isinstance(value, bool) or not isinstance(value, int):
        raise InputError(f"{name} must be an integer, got {type(value).__name__}")
    if minimum is not None and value < minimum:
        raise InputError(f"{name} must be at least {minimum}, got {value}")
    if maximum is not None and value > maximum:
        raise InputError(f"{name} must be at most {maximum}, got {value}")
    return value


# CPython refuses to turn an int of more than 4300 digits into text (the
# default of sys.set_int_max_str_digits), and 2**14284 < 10**4300, so a
# count of at most this many bits can always be printed.
MAX_REPORTED_BITS = 14284


def unreportable(name):
    """The PreconditionError for a count ``name`` too long to print."""
    return PreconditionError(
        f"{name} too large to report: more than {MAX_REPORTED_BITS} bits"
    )


def check_reportable(value, name):
    """Require an int count short enough to print, else PreconditionError."""
    if value.bit_length() > MAX_REPORTED_BITS:
        raise unreportable(name)
    return value
