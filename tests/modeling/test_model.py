"""Unit tests for the instance (model) level."""

import pytest

from repro.modeling.meta import Metamodel
from repro.modeling.model import Model, ModelError, MObject


@pytest.fixture
def metamodel() -> Metamodel:
    mm = Metamodel("tree")
    node = mm.new_class("Node")
    node.attribute("name", "string", required=True)
    node.attribute("weight", "float", default=1.0)
    node.attribute("tags", "string", many=True)
    node.reference("children", "Node", containment=True, many=True,
                   opposite="parent")
    node.reference("parent", "Node", opposite="children")
    node.reference("friend", "Node")
    leaf = mm.new_class("Leaf", supertypes=[node])
    leaf.attribute("payload", "any")
    mm.new_class("Abstract", abstract=True)
    return mm.resolve()


@pytest.fixture
def model(metamodel) -> Model:
    return Model(metamodel, name="fixture")


class TestInstantiation:
    def test_create_with_features(self, model):
        node = model.create("Node", name="root", weight=2.5)
        assert node.name == "root"
        assert node.weight == 2.5
        assert node.is_a("Node")

    def test_abstract_class_rejected(self, model):
        with pytest.raises(ModelError, match="abstract"):
            model.create("Abstract")

    def test_defaults(self, model):
        node = model.create("Node", name="n")
        assert node.weight == 1.0
        assert list(node.tags) == []
        assert node.friend is None

    def test_unique_ids(self, model):
        a = model.create("Node", name="a")
        b = model.create("Node", name="b")
        assert a.id != b.id

    def test_subtype_is_a(self, model):
        leaf = model.create("Leaf", name="l")
        assert leaf.is_a("Node")
        assert leaf.is_a("Leaf")
        assert not model.create("Node", name="n").is_a("Leaf")


class TestAttributes:
    def test_type_errors(self, model):
        node = model.create("Node", name="n")
        with pytest.raises(ModelError):
            node.weight = "heavy"
        with pytest.raises(ModelError):
            node.set("name", 42)

    def test_unknown_feature(self, model):
        node = model.create("Node", name="n")
        with pytest.raises(ModelError, match="no feature"):
            node.set("nope", 1)
        with pytest.raises(AttributeError):
            _ = node.nope

    def test_many_valued_attribute(self, model):
        node = model.create("Node", name="n")
        node.tags = ["a", "b"]
        assert node.tags == ["a", "b"]
        with pytest.raises(ModelError):
            node.tags = "not-a-list"
        with pytest.raises(ModelError):
            node.tags = ["ok", 3]

    def test_unset(self, model):
        node = model.create("Node", name="n", weight=9.0)
        node.unset("weight")
        assert node.weight == 1.0  # back to default


class TestContainment:
    def test_parent_child(self, model):
        root = model.create("Node", name="root")
        child = model.create("Node", name="child")
        root.children.append(child)
        assert child.container is root
        assert child.parent is root  # opposite maintained
        assert list(root.children) == [child]

    def test_reparenting_moves(self, model):
        a = model.create("Node", name="a")
        b = model.create("Node", name="b")
        child = model.create("Node", name="c")
        a.children.append(child)
        b.children.append(child)
        assert child.container is b
        assert child not in a.children
        assert child in b.children

    def test_containment_cycle_rejected(self, model):
        a = model.create("Node", name="a")
        b = model.create("Node", name="b")
        a.children.append(b)
        with pytest.raises(ModelError, match="cycle"):
            b.children.append(a)
        with pytest.raises(ModelError, match="cycle"):
            a.children.append(a)

    def test_remove_clears_container(self, model):
        a = model.create("Node", name="a")
        b = model.create("Node", name="b")
        a.children.append(b)
        a.children.remove(b)
        assert b.container is None
        assert b.parent is None

    def test_walk_and_find(self, model):
        root = model.create("Node", name="root")
        mid = model.create("Node", name="mid")
        leaf = model.create("Leaf", name="leaf")
        root.children.append(mid)
        mid.children.append(leaf)
        assert [n.name for n in root.walk()] == ["root", "mid", "leaf"]
        assert [n.name for n in root.find_by_class("Leaf")] == ["leaf"]
        assert leaf.root() is root
        assert leaf.path() == f"{root.id}/{mid.id}/{leaf.id}"


    def test_containment_added_after_first_use_is_walked(self, metamodel,
                                                         model):
        root = model.create("Node", name="root")
        mid = model.create("Node", name="mid")
        leaf = model.create("Leaf", name="leaf")
        root.children.append(mid)
        mid.children.append(leaf)
        assert [n.name for n in root.walk()] == ["root", "mid", "leaf"]
        metamodel.require_class("Node").reference(
            "spares", "Node", containment=True, many=True).resolve(metamodel)
        assert [r.name for r in
                metamodel.require_class("Leaf").containment_references()
                ] == ["children", "spares"]
        spare = model.create("Node", name="spare")
        boxed = model.create("Node", name="boxed")
        root.get("spares").append(spare)
        leaf.get("spares").append(boxed)  # a subclass's table refreshes
        assert list(root.contents()) == [mid, spare]
        assert list(leaf.contents()) == [boxed]
        assert [n.name for n in root.walk()] == [
            "root", "mid", "leaf", "boxed", "spare"]


class TestReferences:
    def test_cross_reference(self, model):
        a = model.create("Node", name="a")
        b = model.create("Node", name="b")
        a.friend = b
        assert a.friend is b
        assert b.container is None  # non-containment

    def test_type_checked_reference(self, model, metamodel):
        other_mm = Metamodel("other")
        other_mm.new_class("Alien").attribute("name", "string")
        other_mm.resolve()
        alien = MObject(other_mm.require_class("Alien"), name="x")
        a = model.create("Node", name="a")
        with pytest.raises(ModelError, match="does not conform"):
            a.friend = alien

    def test_many_reference_no_duplicates(self, model):
        a = model.create("Node", name="a")
        b = model.create("Node", name="b")
        a.children.append(b)
        a.children.append(b)  # idempotent
        assert len(a.children) == 1

    def test_remove_absent_reference_errors(self, model):
        a = model.create("Node", name="a")
        b = model.create("Node", name="b")
        with pytest.raises(ModelError):
            a.children.remove(b)

    def test_clear_reference(self, model):
        a = model.create("Node", name="a")
        b = model.create("Node", name="b")
        a.friend = b
        a.friend = None
        assert a.friend is None

    def test_opposite_single_reassignment(self, model):
        parent1 = model.create("Node", name="p1")
        parent2 = model.create("Node", name="p2")
        child = model.create("Node", name="c")
        child.parent = parent1
        assert child in parent1.children
        child.parent = parent2
        assert child in parent2.children
        assert child not in parent1.children


class TestModelContainer:
    def test_roots_and_lookup(self, model):
        root = model.create_root("Node", name="r")
        child = model.create("Node", name="c")
        root.children.append(child)
        assert model.by_id(child.id) is child
        assert model.by_id("nothing") is None
        assert len(model) == 2
        assert [o.name for o in model.objects_by_class("Node")] == ["r", "c"]

    def test_contained_object_cannot_be_root(self, model):
        root = model.create_root("Node", name="r")
        child = model.create("Node", name="c")
        root.children.append(child)
        with pytest.raises(ModelError, match="contained"):
            model.add_root(child)

    def test_index(self, model):
        root = model.create_root("Node", name="r")
        index = model.index()
        assert index[root.id] is root

    def test_remove_root(self, model):
        root = model.create_root("Node", name="r")
        model.remove_root(root)
        assert len(model) == 0
