"""`solve` never rejects a strong-satisfiable instance: random templates
checked against brute force.

A strong assignment is a 0/1 point of the basic LP, so it lies on the LP's
hull as an integer point, and it solves the affine relaxation over every
quotient.  So whatever the family, a planted instance is accepted, and on
tiny instances a reject means that brute force finds no strong assignment.
The weak relations hold every tuple over the family's outputs, so no
rounding can leave the weak side.  These checks share no code with the
relaxations they test.
"""

from __future__ import annotations

import random
from itertools import product

import pytest

from pcsp import corpus
from pcsp.model import (Clause, Instance, PromiseTemplate, Relation,
                        plant_satisfiable_instance, verify_assignment)
from pcsp.pipeline import solve

# kind -> (corpus entry lending its family, strong domain, weak domain,
# largest unplanted instance that brute force enumerates)
KINDS = {
    "maj": ("twosat", (0, 1), (0, 1), 7),
    "third": ("two-plus-eps-sat", (0, 1), (0, 1), 7),
    "malt": ("one-in-three-malt", (0, 1), (0, 1), 7),
    "mod7": ("mod7-sandwich", tuple(range(7)), (0, 1), 4),
    "rainbow": ("rainbow", (1, 2, 3), (1, 2, 3), 5),
    "fam-gL": ("didactic", (0, 1), (0, 1, 2, 3), 7),
}
SEEDS = {"maj": 7, "third": 7, "malt": 7, "mod7": 7, "rainbow": 6,
         "fam-gL": 6}
CASES = [(kind, seed) for kind, count in SEEDS.items() for seed in range(count)]


def random_template(rng: random.Random, strong_dom, weak_dom) -> PromiseTemplate:
    """1-2 relations of arity 2-3 with random strong tuples, every weak
    tuple, and phi sending each strong value to a random weak value."""
    phi = {d: rng.choice(weak_dom) for d in strong_dom}
    rels = []
    for i in range(rng.randint(1, 2)):
        arity = rng.randint(2, 3)
        every = list(product(strong_dom, repeat=arity))
        strong = frozenset(rng.sample(every, rng.randint(1, min(len(every), 6))))
        rels.append(Relation(f"r{i}", arity, strong,
                             frozenset(product(weak_dom, repeat=arity))))
    return PromiseTemplate(tuple(strong_dom), tuple(weak_dom), phi, tuple(rels))


def random_instance(rng: random.Random, template: PromiseTemplate,
                    n_vars: int) -> Instance:
    clauses = []
    for _ in range(rng.randint(2, 4)):
        rel = rng.randrange(len(template.relations))
        arity = template.relations[rel].arity
        clauses.append(Clause(rel, tuple(rng.sample(range(n_vars), arity))))
    return Instance(n_vars, tuple(clauses))


def strong_satisfiable(template: PromiseTemplate, instance: Instance) -> bool:
    return any(verify_assignment(template, instance, values, side="strong") is None
               for values in product(template.domain, repeat=instance.n_vars))


def shuffled(rng: random.Random, instance: Instance) -> Instance:
    """The same instance with its variables relabelled and clauses permuted."""
    relabel = list(range(instance.n_vars))
    rng.shuffle(relabel)
    clauses = [Clause(cl.relation, tuple(relabel[v] for v in cl.variables))
               for cl in instance.clauses]
    rng.shuffle(clauses)
    return Instance(instance.n_vars, tuple(clauses))


def checked_verdict(template, instance, family) -> bool:
    res = solve(template, instance, family)
    if res.accepted:
        assert verify_assignment(template, instance, res.assignment) is None
    return res.accepted


@pytest.mark.parametrize("kind,seed", CASES)
def test_random_template_verdicts(kind, seed):
    name, strong_dom, weak_dom, brute_n = KINDS[kind]
    family = corpus.entry(name).family
    rng = random.Random(f"{kind}/{seed}")
    template = random_template(rng, strong_dom, weak_dom)

    planted, _ = plant_satisfiable_instance(template, rng.randint(3, 6),
                                            rng.randint(1, 4), rng)
    assert checked_verdict(template, planted, family)

    free = random_instance(rng, template, rng.randint(3, brute_n))
    verdict = checked_verdict(template, free, family)
    if not verdict:
        assert not strong_satisfiable(template, free)
    assert checked_verdict(template, shuffled(rng, free), family) == verdict
