"""Meta-path composition of link types.

Kong et al. [3] (the Hcc baseline) view meta-paths — chains of link types
like *author -conference- author -citation- author* — as derived relations.
Because our HIN projects everything onto one node type, a meta-path here is
a sequence of existing link types whose adjacency matrices are multiplied
(boolean/weighted chaining of hops).
"""

from __future__ import annotations

from typing import Sequence

import numpy as np
import scipy.sparse as sp

from repro.errors import ValidationError
from repro.hin.graph import HIN
from repro.tensor.sptensor import SparseTensor3


def compose_relations(
    hin: HIN,
    path: Sequence[str | int],
    *,
    binary: bool = True,
    drop_self_loops: bool = True,
) -> sp.csr_matrix:
    """Compose the link types in ``path`` into one derived adjacency matrix.

    Parameters
    ----------
    hin:
        The source network.
    path:
        Relation names or indices, applied left to right: the result links
        ``u -> v`` when there is a chain ``u -> ... -> v`` stepping through
        the listed relations in order.
    binary:
        Clip path-count weights to 0/1 (default, matching the unweighted
        tensor convention); set ``False`` to keep path counts.
    drop_self_loops:
        Remove the diagonal (a node trivially reaches itself through any
        symmetric relation pair).
    """
    if not path:
        raise ValidationError("meta-path must contain at least one relation")
    indices = [
        hin.relation_index(p) if isinstance(p, str) else int(p) for p in path
    ]
    for k in indices:
        if not 0 <= k < hin.n_relations:
            raise ValidationError(
                f"relation index {k} out of range [0, {hin.n_relations})"
            )
    result = hin.tensor.relation_slice(indices[0])
    for k in indices[1:]:
        result = hin.tensor.relation_slice(k) @ result
    result = sp.csr_matrix(result)
    if drop_self_loops:
        result.setdiag(0)
        result.eliminate_zeros()
    if binary:
        result.data = np.ones_like(result.data)
    return result


def with_metapath_relations(
    hin: HIN,
    paths: dict[str, Sequence[str | int]],
    *,
    keep_original: bool = True,
    binary: bool = True,
) -> HIN:
    """Return a HIN extended with derived meta-path relations.

    Parameters
    ----------
    paths:
        Maps new relation names to meta-paths (see
        :func:`compose_relations`).
    keep_original:
        Keep the existing link types alongside the derived ones.
    """
    for name in paths:
        if keep_original and name in hin.relation_names:
            raise ValidationError(
                f"derived relation name {name!r} collides with an existing one"
            )
    slices: list[sp.csr_matrix] = []
    names: list[str] = []
    if keep_original:
        slices.extend(hin.tensor.relation_slices())
        names.extend(hin.relation_names)
    for name, path in paths.items():
        slices.append(compose_relations(hin, path, binary=binary))
        names.append(name)
    tensor = SparseTensor3.from_slices(slices, n=hin.n_nodes)
    return hin.derive(tensor=tensor, relation_names=names)
