"""Seeded inputs: the DBLP store, the query classes and the ingest
documents.  The same seed always gives the same inputs; the program only
ever sees what these functions generate."""

from __future__ import annotations

import random
from dataclasses import dataclass

from repro.core.parser import parse_pattern, parse_query
from repro.datasets.dblp import generate_dblp
from repro.datasets.workloads import EFFICIENCY_PATTERNS
from repro.datasets.xmark import generate_xmark
from repro.index.inverted import InvertedIndex
from repro.xmlio.writer import dump_tree

#: Background articles of the searched DBLP store: its frequent keywords
#: carry the paper's 100-1000 postings (§4.3).
DBLP_SCALE = 1000
#: Keyword lists the large and medium classes draw from (§4.3 range).
POOL_MIN, POOL_MAX, POOL_SIZE = 100, 1000, 30
#: A Table 2 query is "small" when every one of its lists is this short.
SMALL_LIST_MAX = 50
#: Keywords per large query (the paper's 10-keyword collection).
LARGE_KEYWORDS = 10

#: Ingest documents: (generator, background scale) per size class; the
#: large ones serialise to at least four times the bytes of the small.
INGEST_DOCS = (
    ("dblp", "large", 150),
    ("xmark", "large", 40),
    ("dblp", "small", 10),
    ("xmark", "small", 8),
)


def dblp_dataset(seed: int):
    return generate_dblp(scale=DBLP_SCALE, seed=seed)


def keyword_pool(index: InvertedIndex) -> list:
    """The most frequent keywords whose lists hold 100-1000 postings."""
    pool = [keyword for keyword in index.most_frequent(POOL_SIZE * 4)
            if POOL_MIN <= index.frequency(keyword) <= POOL_MAX]
    if len(pool) < POOL_SIZE:
        raise ValueError(f"only {len(pool)} keywords hold "
                         f"{POOL_MIN}-{POOL_MAX} postings")
    return pool[:POOL_SIZE]


@dataclass
class QueryMix:
    """The three query classes of the paper's efficiency study."""

    table2: dict      # query id -> text, all of QD1-QD5 (checked)
    small: list       # Table 2 queries whose lists are all short
    medium: list      # one or two frequent keywords
    large: list       # 10-keyword cohesiveness-pattern instantiations


#: Pool ranks of the medium queries: two single keywords, two pairs.
MEDIUM_RANKS = ((2,), (17,), (5, 11), (8, 24))


def pattern_ranks(position: int, count: int, pool_size: int) -> list:
    """The pool ranks that instantiate large pattern ``position``.

    Fixed for every seed: the seed changes the data (and so which
    keyword holds each rank), not how long the chosen lists are, so
    every seed poses about the same amount of work.
    """
    return random.Random(f"pattern-{position}").sample(range(pool_size),
                                                       count)


def query_mix(dataset, index: InvertedIndex) -> QueryMix:
    normalize = index.tokenizer.normalize
    small = []
    for text in dataset.queries.values():
        keywords = parse_pattern_keywords(text, normalize)
        if all(index.frequency(keyword) <= SMALL_LIST_MAX
               for keyword in keywords):
            small.append(text)
    pool = keyword_pool(index)
    medium = ["({})".format(" ".join(pool[rank] for rank in ranks))
              for ranks in MEDIUM_RANKS]
    large = [str(parse_pattern(pattern).with_keywords(
        [pool[rank] for rank in pattern_ranks(position, LARGE_KEYWORDS,
                                              len(pool))]))
        for position, pattern in
        enumerate(EFFICIENCY_PATTERNS[LARGE_KEYWORDS])]
    return QueryMix(dict(dataset.queries), small, medium, large)


def parse_pattern_keywords(text: str, normalize) -> list:
    return [normalize(keyword)
            for keyword in parse_query(text).distinct_keywords()]


@dataclass
class IngestDoc:
    corpus: str       # "dblp" or "xmark"
    size: str         # "small" or "large"
    xml: str
    dataset: object   # the generator's output (planted answers)

    @property
    def kb(self) -> float:
        return len(self.xml.encode("utf-8")) / 1024.0


def ingest_docs(seed: int) -> list:
    """The ingest documents, serialised; document ``d`` of the list is
    stored under Dewey prefix ``(d,)``."""
    docs = []
    for position, (corpus, size, scale) in enumerate(INGEST_DOCS):
        generate = generate_dblp if corpus == "dblp" else generate_xmark
        dataset = generate(scale=scale, seed=seed * 10 + position)
        docs.append(IngestDoc(corpus, size, dump_tree(dataset.tree),
                              dataset))
    for corpus in ("dblp", "xmark"):
        small = next(d for d in docs if (d.corpus, d.size) ==
                     (corpus, "small"))
        large = next(d for d in docs if (d.corpus, d.size) ==
                     (corpus, "large"))
        if large.kb < 4 * small.kb:
            raise ValueError(f"{corpus} documents are {small.kb:.1f} and "
                             f"{large.kb:.1f} KB, less than 4x apart")
    return docs
