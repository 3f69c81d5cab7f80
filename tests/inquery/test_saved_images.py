"""A saved dictionary or document table repacks only what changed.

After the first save each keeps its image; these check the image rules
one by one against the whole-structure serializers of
``tests/full_images.py``: ``add`` dirties its own chain, a grow drops the
image, a ``touch`` repacks the touched entry's chain, and a document
table row follows ``add`` and ``remove``.
"""

from repro.inquery import DocTable, HashDictionary
from repro.simdisk import SimClock, SimDisk, SimFileSystem

from ..full_images import dictionary_bytes, doctable_bytes


def _file():
    return SimFileSystem(SimDisk(SimClock()), cache_blocks=16).create("f")


def _saved(obj, file):
    obj.save(file)
    return file.read(0, file.size)


def test_dictionary_image_follows_add_grow_and_touch():
    dictionary = HashDictionary(initial_buckets=4)
    file = _file()
    for i in range(10):
        dictionary.add(f"t{i}").df = i
    assert _saved(dictionary, file) == dictionary_bytes(dictionary)
    dictionary.add("late")  # an add dirties its chain, no touch needed
    assert _saved(dictionary, file) == dictionary_bytes(dictionary)
    buckets = dictionary.bucket_count
    for i in range(40):  # past 4 per bucket: the table grows
        entry = dictionary.add(f"g{i}")
        entry.df = entry.ctf = i
        dictionary.touch(entry)
    assert dictionary.bucket_count > buckets
    assert _saved(dictionary, file) == dictionary_bytes(dictionary)
    entry = dictionary.lookup("t3")
    entry.df, entry.storage_key, entry.max_tf = 99, 1234, 7
    dictionary.touch(entry)
    assert _saved(dictionary, file) == dictionary_bytes(dictionary)
    loaded = HashDictionary.load(file)
    assert loaded.lookup("t3").storage_key == 1234
    assert _saved(loaded, _file()) == dictionary_bytes(loaded)


def test_doctable_image_follows_add_and_remove():
    table = DocTable()
    file = _file()
    for doc_id in (5, 1, 9):
        table.add(doc_id, doc_id * 10, f"d{doc_id}")
    assert _saved(table, file) == doctable_bytes(table)
    table.add(3, 7)
    table.remove(9)
    table.add(12, 1, "twelve")
    assert _saved(table, file) == doctable_bytes(table)
    table.remove(3)
    table.add(3, 8, "again")
    assert _saved(table, file) == doctable_bytes(table)
    assert DocTable.load(file).lengths == table.lengths
