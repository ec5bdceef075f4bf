"""Metamorphic transforms of spec documents.

Each transform changes how a document writes its algebra, not the algebra
it presents, so every dimension and every verdict a command reports must
stay the same.  ``relabel`` reorders the basis of K.
"""

import copy


def _permute(seq, perm):
    return [seq[i] for i in perm]


def _relabel_group(group, perm):
    group["labels"] = _permute(group["labels"], perm)
    group["table"] = [_permute(group["table"][i], perm) for i in perm]


def relabel(doc, perm):
    """A copy of ``doc`` whose i-th basis element of K is its perm[i]-th one.

    The labels, the rows and columns of the group table and every dense
    K-vector (``extension.lambdas``, ``lambda_breve``) move alike, in the
    ``rank_one`` block as in a ``base_algebra``.  Character values and ``g1``
    are keyed by label and do not move.  Only group algebras with a
    character twist and the regular bimodule are rewritten; any other
    document raises ``ValueError``.
    """
    doc = copy.deepcopy(doc)
    if "rank_one" in doc:
        _relabel_group(doc["rank_one"], perm)
        return doc
    if doc["base_algebra"]["type"] != "group" or doc["endomorphism"]["type"] != "character" or "bimodule" in doc:
        raise ValueError("relabel rewrites group algebras with a character twist and the regular bimodule")
    _relabel_group(doc["base_algebra"], perm)
    ext = doc["extension"]
    ext["lambdas"] = [_permute(v, perm) for v in ext["lambdas"]]
    if "lambda_breve" in doc:
        doc["lambda_breve"] = _permute(doc["lambda_breve"], perm)
    return doc
