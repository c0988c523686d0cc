"""Answer checks, computed apart from the answers they judge.

Each function returns a list of problems (empty when the answer holds);
none compares against a stored copy of an earlier output.
"""

from __future__ import annotations

import bisect
import hashlib
import traceback

from repro.tree import dewey


def rows(results) -> list:
    """Results as plain comparable tuples."""
    return [(row.code, row.size, tuple(row.term_sizes)) for row in results]


def digest(values) -> str:
    """A short fingerprint of comparable rows or postings, so a process
    can check answers against a reference it does not hold."""
    return hashlib.sha256(repr(values).encode("utf-8")).hexdigest()


def postings_digest(mapping) -> str:
    """:func:`digest` of a ``keyword -> postings`` mapping."""
    return digest(sorted((keyword, tuple(plist))
                         for keyword, plist in mapping.items()))


def reference(session, query, postings, relevant=None,
              options=None) -> tuple:
    """``query``'s answer from ``session`` as :func:`rows` (``None`` if
    the search raised), with the problems the property checks find in
    it: every keyword in every result's subtree (read from
    ``postings``), ascending sizes and, for a Table 2 query
    (``relevant`` given), the planted records at the smallest size."""
    try:
        answer = session.search(query, options)
        keywords = session.plan(query).keywords
    except Exception:
        # Every timed answer to this query then fails its check.
        return None, ["the reference search raised:\n" +
                      traceback.format_exc()]
    problems = keywords_in_subtrees(answer, keywords, postings)
    problems += ascending_sizes(answer)
    if relevant is not None:
        problems += smallest_are_planted(answer, relevant)
    return rows(answer), problems


def wire_rows(payload_results) -> list:
    """Result rows decoded from the wire, as :func:`rows` tuples."""
    return [(dewey.parse(row["code"]), row["size"],
             tuple(row["term_sizes"]))
            for row in payload_results]


def keywords_in_subtrees(results, keywords, postings) -> list:
    """Every result's subtree holds every query keyword, read from the
    inverted lists (``postings(keyword)`` -> Dewey-sorted postings)."""
    problems = []
    codes = {keyword: [posting.code for posting in postings(keyword)]
             for keyword in keywords}
    for row in results:
        for keyword, listed in codes.items():
            at = bisect.bisect_left(listed, row.code)
            if at == len(listed) or \
                    listed[at][:len(row.code)] != row.code:
                problems.append(f"{dewey.format_code(row.code)} lacks "
                                f"{keyword!r}")
                break
    return problems


def ascending_sizes(results) -> list:
    sizes = [row.size for row in results]
    if sizes != sorted(sizes):
        return ["results are not in ascending LCA size"]
    return []


def smallest_are_planted(results, relevant) -> list:
    """The results of smallest LCA size are exactly the planted
    relevant records."""
    if not results:
        return ["no results"]
    smallest = min(row.size for row in results)
    found = {row.code for row in results if row.size == smallest}
    if found != set(relevant):
        return [f"smallest-size results {sorted(found)} are not the "
                f"planted {sorted(relevant)}"]
    return []


def same_rows(got, expected, what: str) -> list:
    if got != expected:
        return [f"{what}: {len(got)} results differ from the "
                f"{len(expected)} expected"]
    return []


def same_postings(store, reference) -> list:
    """Every keyword's postings read from ``store`` equal
    ``reference``'s (both ``keyword -> postings`` mappings)."""
    problems = []
    if set(store) != set(reference):
        missing = set(reference) - set(store)
        extra = set(store) - set(reference)
        problems.append(f"keywords differ: {len(missing)} missing, "
                        f"{len(extra)} extra")
    for keyword in reference:
        if keyword in store and \
                tuple(store[keyword]) != tuple(reference[keyword]):
            problems.append(f"postings of {keyword!r} differ")
            if len(problems) > 5:
                break
    return problems
