#!/usr/bin/env python3
"""Walk through the signature pipeline on a handful of tiny documents.

A document is reduced to a short vector (its signature) by scoring it
against the partitions of a shared reference gram sequence. Similar
documents get similar signatures, so comparing signatures stands in for
comparing the full texts.
"""

import numpy as np

from refsig import (
    Document,
    ReferenceText,
    classify,
    ClassifierConfig,
    cosine,
    extract_3grams,
    normalize,
    pairwise_signature_similarity,
    signature_matrix,
)
from refsig.text import gram_keys, gram_strings

# --- normalization and 3-grams ---------------------------------------------

raw = "The  QUICK   Brown Fox!\n"
text = normalize(raw)
print("raw:       ", repr(raw))
print("normalized:", repr(text))

# Grams are counted as sorted packed int64 keys; gram_strings turns them back into text.
keys, counts = extract_3grams(text)
print(f"\n{len(keys)} distinct 3-grams, total mass {counts.sum()}")
print("a few of them:", dict(zip(gram_strings(keys[:6]), counts[:6].tolist())))

# exact cosine is the ground truth the signatures approximate
a = Document.from_raw("a", "the quick brown fox jumps over the lazy dog")
b = Document.from_raw("b", "the quick brown fox jumped over a lazy dog")
c = Document.from_raw("c", "completely unrelated sentence about databases")
print("\nexact cosine a~b:", round(cosine(a, b), 4))
print("exact cosine a~c:", round(cosine(a, c), 4))

# --- a reference text and its partitions ------------------------------------

# Normally the reference comes from the trainer; here we build a tiny one by
# hand from grams that occur in our documents. A reference holds packed keys.
grams = ["the", "he ", "qui", "uic", "ick", "bro", "row", "own",
         "fox", "ox ", "laz", "azy", "dog", "og ", "jum", "ump"]
ref = ReferenceText(gram_keys("".join(grams))[::3], partitions=4)
print(f"\nreference: {len(ref)} grams in {ref.partitions} partitions")
# Partitions are contiguous; the first ones take one gram more when the sizes differ.
for k, part in enumerate(np.array_split(ref.keys, ref.partitions)):
    print(f"  partition {k}: {sorted(set(gram_strings(part)))}")

# --- signatures --------------------------------------------------------------

# Documents are signed together: one row of partition scores per document.
sigs = signature_matrix([a, b, c], ref)
sig_a, sig_b, sig_c = sigs
print("\nsignature of a:", sig_a.round(3).tolist())
print("signature of b:", sig_b.round(3).tolist())
print("signature of c:", sig_c.round(3).tolist())

# Entry j compares a's signature with the signature of document j.
sims = pairwise_signature_similarity(sigs[:1], sigs)[0].tolist()
print("\nsignature similarity a~b:", round(sims[1], 4))
print("signature similarity a~c:", round(sims[2], 4))

# --- classification -----------------------------------------------------------

cfg = ClassifierConfig(t1=0.99, t2=0.90)
for name, similarity in [("b", sims[1]), ("c", sims[2])]:
    print(f"a vs {name}: {classify(similarity, cfg).value} (similarity {similarity:.4f})")
