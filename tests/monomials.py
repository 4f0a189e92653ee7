"""The test-side dense view of a monomial, for the references that index powers by coordinate."""


def dense(mono, arity=None):
    """(x powers, D powers) of ``mono`` as tuples of length ``arity``, by default its own,
    read through ``Monomial.powers``."""
    pows = [mono.powers(i) for i in range(mono.arity if arity is None else arity)]
    return tuple(x for x, _ in pows), tuple(d for _, d in pows)
