"""Unit tests for the source-to-source transformation passes."""

import pytest

from repro.core import ast_nodes as ast
from repro.core.parser import parse
from repro.core.semantic import analyze
from repro.core.transforms.constant_fold import fold_constants
from repro.core.transforms.scalarize import scalarize_kernel
from repro.core.transforms.split_outputs import split_kernel_outputs
from repro.core.types import FLOAT, ParamKind
from repro.errors import CodegenError


def first_kernel(source):
    return parse(source).kernels[0]


class TestSplitOutputs:
    TWO_OUTPUT = (
        "kernel void both(float a<>, out float plus<>, out float minus<>) {"
        " plus = a + 1.0; minus = a - 1.0; }"
    )

    def test_single_output_kernel_unchanged(self):
        kernel = first_kernel("kernel void f(float a<>, out float o<>) { o = a; }")
        assert split_kernel_outputs(kernel) == [kernel]

    def test_two_outputs_produce_two_kernels(self):
        pieces = split_kernel_outputs(first_kernel(self.TWO_OUTPUT))
        assert len(pieces) == 2
        assert [p.name for p in pieces] == ["both__plus", "both__minus"]

    def test_each_piece_has_single_output(self):
        for piece in split_kernel_outputs(first_kernel(self.TWO_OUTPUT)):
            assert len(piece.output_params) == 1

    def test_demoted_output_becomes_local(self):
        piece = split_kernel_outputs(first_kernel(self.TWO_OUTPUT))[0]
        first_statement = piece.body.statements[0]
        assert isinstance(first_statement, ast.DeclStatement)
        assert first_statement.name == "minus"

    def test_split_pieces_pass_semantic_analysis(self):
        pieces = split_kernel_outputs(first_kernel(self.TWO_OUTPUT))
        unit = ast.TranslationUnit(functions=pieces)
        program = analyze(unit)
        assert len(program.kernels) == 2

    def test_reduction_kernel_not_split(self):
        kernel = parse(
            "reduce void total(float a<>, reduce float r) { r += a; }"
        ).kernels[0]
        assert split_kernel_outputs(kernel) == [kernel]

    def test_original_kernel_unmodified(self):
        kernel = first_kernel(self.TWO_OUTPUT)
        split_kernel_outputs(kernel)
        assert len(kernel.output_params) == 2

    def test_three_outputs(self):
        kernel = first_kernel(
            "kernel void f(float a<>, out float x<>, out float y<>, out float z<>)"
            " { x = a; y = a; z = a; }"
        )
        assert len(split_kernel_outputs(kernel)) == 3


class TestScalarize:
    def test_scalar_kernel_unchanged(self):
        kernel = first_kernel("kernel void f(float a<>, out float o<>) { o = a; }")
        clone = scalarize_kernel(kernel)
        assert [p.name for p in clone.params] == ["a", "o"]

    def test_vector_stream_split_into_components(self):
        kernel = first_kernel(
            "kernel void f(float2 a<>, out float o<>) { o = a.x + a.y; }"
        )
        clone = scalarize_kernel(kernel)
        names = [p.name for p in clone.params]
        assert names == ["a_x", "a_y", "o"]
        assert all(p.type == FLOAT for p in clone.params)

    def test_vector_output_split(self):
        kernel = first_kernel(
            "kernel void f(float a<>, out float2 o<>) { o.x = a; o.y = a * 2.0; }"
        )
        clone = scalarize_kernel(kernel)
        assert [p.name for p in clone.params] == ["a", "o_x", "o_y"]
        assert all(p.kind is ParamKind.OUT_STREAM for p in clone.params[1:])

    def test_swizzle_rewritten_to_scalar_name(self):
        kernel = first_kernel(
            "kernel void f(float2 a<>, out float o<>) { o = a.y; }"
        )
        clone = scalarize_kernel(kernel)
        assignment = clone.body.statements[0].expr
        assert isinstance(assignment.value, ast.Identifier)
        assert assignment.value.name == "a_y"

    def test_scalarized_kernel_passes_analysis(self):
        kernel = first_kernel(
            "kernel void f(float4 a<>, out float o<>) {"
            " o = a.x + a.y + a.z + a.w; }"
        )
        clone = scalarize_kernel(kernel)
        analyze(ast.TranslationUnit(functions=[clone]))

    def test_whole_vector_use_rejected(self):
        kernel = first_kernel(
            "kernel void f(float2 a<>, float2 b<>, out float o<>) { o = dot(a, b); }"
        )
        with pytest.raises(CodegenError):
            scalarize_kernel(kernel)

    def test_multi_component_swizzle_rejected(self):
        kernel = first_kernel(
            "kernel void f(float4 a<>, out float o<>) { o = length(a.xy); }"
        )
        with pytest.raises(CodegenError):
            scalarize_kernel(kernel)

    def test_original_kernel_unmodified(self):
        kernel = first_kernel(
            "kernel void f(float2 a<>, out float o<>) { o = a.x; }"
        )
        scalarize_kernel(kernel)
        assert kernel.param("a") is not None


class TestConstantFolding:
    def fold_value(self, expression):
        kernel = first_kernel(
            f"kernel void f(float a<>, out float o<>) {{ o = {expression}; }}"
        )
        folded = fold_constants(kernel)
        return folded.body.statements[0].expr.value

    def test_addition_folded(self):
        value = self.fold_value("1.0 + 2.0")
        assert isinstance(value, ast.NumberLiteral)
        assert value.value == pytest.approx(3.0)

    def test_nested_arithmetic_folded(self):
        value = self.fold_value("(2.0 + 2.0) * (3.0 - 1.0)")
        assert isinstance(value, ast.NumberLiteral)
        assert value.value == pytest.approx(8.0)

    def test_unary_minus_folded(self):
        value = self.fold_value("-(2.0 * 4.0)")
        assert value.value == pytest.approx(-8.0)

    def test_builtin_call_folded(self):
        value = self.fold_value("sqrt(16.0)")
        assert isinstance(value, ast.NumberLiteral)
        assert value.value == pytest.approx(4.0)

    def test_division_by_zero_not_folded(self):
        value = self.fold_value("1.0 / 0.0")
        assert isinstance(value, ast.BinaryOp)

    def test_non_constant_expression_untouched(self):
        value = self.fold_value("a * 2.0 + 1.0")
        assert isinstance(value, ast.BinaryOp)

    def test_integer_division_stays_integer(self):
        value = self.fold_value("7 / 2")
        assert isinstance(value, ast.NumberLiteral)
        assert not value.is_float
        assert value.value == 3

    def test_conditional_with_constant_condition(self):
        value = self.fold_value("1.0 > 0.0 ? 5.0 : 7.0")
        # The condition folds only if it is a literal; comparison folding is
        # conservative, so either form is acceptable as long as it is valid.
        assert isinstance(value, (ast.NumberLiteral, ast.Conditional))

    def test_fold_inside_loop_bounds(self):
        kernel = first_kernel(
            "kernel void f(float a<>, out float o<>) {"
            " o = 0.0; for (int i = 0; i < 4 * 4; i = i + 1) { o += a; } }"
        )
        folded = fold_constants(kernel)
        loop = folded.body.statements[1]
        assert isinstance(loop.cond.right, ast.NumberLiteral)
        assert loop.cond.right.value == 16

    def test_in_place_folding(self):
        kernel = first_kernel(
            "kernel void f(float a<>, out float o<>) { o = 2.0 + 3.0; }"
        )
        result = fold_constants(kernel, in_place=True)
        assert result is kernel
        assert isinstance(kernel.body.statements[0].expr.value, ast.NumberLiteral)

    def test_copy_by_default(self):
        kernel = first_kernel(
            "kernel void f(float a<>, out float o<>) { o = 2.0 + 3.0; }"
        )
        fold_constants(kernel)
        assert isinstance(kernel.body.statements[0].expr.value, ast.BinaryOp)


class TestClone:
    SOURCE = """
    float twice(float v) { return v + v; }
    kernel void f(float a<>, float t[][], float k, out float o<>) {
        float2 pos = indexof(o);
        float acc = 1.0 + 2.0;
        for (int i = 0; i < 4; i = i + 1) {
            acc += twice(a) * t[pos.y][i] + (k > 0.0 ? -k : 2.0 * 3.0);
        }
        if (acc > 1.0) { o = acc; } else { o = float2(acc, a).y; }
    }
    """

    @staticmethod
    def analyzed_kernel(source):
        return analyze(parse(source)).unit.kernel("f")

    def test_copy_is_equal_with_new_nodes_and_shared_leaves(self):
        kernel = self.analyzed_kernel(self.SOURCE)
        copy = ast.clone(kernel)
        assert copy == kernel
        assert copy.to_source() == kernel.to_source()
        originals = list(kernel.walk())
        copies = list(copy.walk())
        assert len(copies) == len(originals)
        assert not {id(node) for node in originals} \
            & {id(node) for node in copies}
        for original, copied in zip(originals, copies):
            assert type(copied) is type(original)
            assert copied.location is original.location
            # The semantic analyzer's annotations travel with the copy.
            assert getattr(copied, "type", None) \
                is getattr(original, "type", None)
        assert copy.params is not kernel.params
        assert copy.body.statements is not kernel.body.statements

    def test_renames_apply_to_every_symbol_kind(self):
        kernel = parse(self.SOURCE).kernel("f")
        renames = {"a": "p_a", "o": "p_o", "acc": "p_acc", "pos": "p_pos"}
        copy = ast.clone(kernel, renames)
        assert [p.name for p in copy.params] == ["p_a", "t", "k", "p_o"]
        names = {node.name for node in copy.walk()
                 if isinstance(node, (ast.Identifier, ast.DeclStatement))}
        assert {"p_a", "p_o", "p_acc", "p_pos", "t", "k", "i"} <= names
        assert not names & set(renames)
        assert [node.stream for node in copy.walk()
                if isinstance(node, ast.IndexOfExpr)] == ["p_o"]
        # Callee names are not symbols.
        assert any(isinstance(node, ast.CallExpr) and node.callee == "twice"
                   for node in copy.walk())
        assert "p_" not in kernel.to_source()

    def test_folding_a_clone_leaves_the_original_untouched(self):
        kernel = self.analyzed_kernel(self.SOURCE)
        before = kernel.to_source()
        nodes = list(kernel.walk())
        identities = [id(node) for node in nodes]
        folded = fold_constants(kernel)
        assert folded.to_source() != before
        assert "3.0" in folded.to_source() and "6.0" in folded.to_source()
        assert kernel.to_source() == before
        assert [id(node) for node in kernel.walk()] == identities


class TestWalk:
    def test_pre_order_matches_the_recursive_definition(self):
        kernel = parse(TestClone.SOURCE).kernel("f")

        def recursive(node):
            yield node
            for child in node.children():
                yield from recursive(child)

        assert [id(n) for n in kernel.walk()] == \
            [id(n) for n in recursive(kernel)]

    def test_children_are_read_when_the_node_is_reached(self):
        kernel = first_kernel(
            "kernel void f(float a<>, out float o<>) { o = a + 1.0; }")
        replacement = ast.Identifier(name="b")
        seen = []
        for node in kernel.walk():
            seen.append(node)
            if isinstance(node, ast.BinaryOp):
                node.right = replacement
        assert seen[-1] is replacement
        assert not any(isinstance(node, ast.NumberLiteral) for node in seen)
