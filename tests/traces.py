"""`registers.run`'s traces as lists, for comparison with lists of ints.

run returns bytes bit rows and array carry rows (list rows for fields wider
than 8 bytes); list(row) gives each as the ints it holds.
"""


def listed(traces):
    """run's (bits, mems) with every row a list of ints."""
    bits, mems = traces
    return [list(row) for row in bits], [list(row) for row in mems]
