"""Recursive-descent parser for the supported C subset."""

from __future__ import annotations

from repro.lang import ast
from repro.lang.errors import ParseError, SourceLocation
from repro.lang.lexer import Token, tokenize

# Keywords that can begin a type.
_TYPE_KEYWORDS = {
    "unsigned",
    "signed",
    "int",
    "long",
    "short",
    "char",
    "void",
    "bool",
    "_Bool",
    "struct",
    "union",
    "enum",
    "const",
    "volatile",
}

_INT_SPECIFIERS = {"unsigned", "signed", "int", "long", "short", "char"}


class Parser:
    """Parses a token stream into a :class:`repro.lang.ast.TranslationUnit`."""

    def __init__(self, tokens: list[Token]) -> None:
        self.tokens = tokens
        self.position = 0
        self.typedef_names: set[str] = set()
        self.unit = ast.TranslationUnit()

    # ------------------------------------------------------------- utilities

    def _peek(self, offset: int = 0) -> Token:
        index = min(self.position + offset, len(self.tokens) - 1)
        return self.tokens[index]

    def _at(self, kind: str, text: str | None = None, offset: int = 0) -> bool:
        token = self._peek(offset)
        return token.kind == kind and (text is None or token.text == text)

    def _advance(self) -> Token:
        token = self.tokens[self.position]
        if token.kind != "eof":
            self.position += 1
        return token

    def _expect(self, kind: str, text: str | None = None) -> Token:
        token = self._peek()
        if token.kind != kind or (text is not None and token.text != text):
            wanted = text if text is not None else kind
            raise ParseError(
                f"expected {wanted!r}, found {token.text!r}", token.location
            )
        return self._advance()

    # ------------------------------------------------------------ type tests

    def _is_type_start(self, offset: int = 0) -> bool:
        token = self._peek(offset)
        if token.kind == "keyword" and token.text in _TYPE_KEYWORDS:
            return True
        return token.kind == "ident" and token.text in self.typedef_names

    # -------------------------------------------------------------- top level

    def parse_unit(self) -> ast.TranslationUnit:
        while not self._at("eof"):
            self._parse_top_level()
        return self.unit

    def _parse_top_level(self) -> None:
        if self._at("keyword", "typedef"):
            self._parse_typedef()
            return
        if self._at("keyword", "struct") and self._at("op", "{", 2):
            # struct name { ... };  (definition without typedef)
            self._parse_struct_definition(typedef=False)
            return
        is_extern = False
        if self._at("keyword", "extern"):
            self._advance()
            is_extern = True
        base = self._parse_base_type()
        pointer_depth = self._parse_stars()
        name_token = self._expect("ident")
        type_expr = ast.TypeExpr(base, pointer_depth)
        if self._at("op", "("):
            self._parse_function(type_expr, name_token, is_extern)
        else:
            self._parse_global_var(type_expr, name_token)

    def _parse_typedef(self) -> None:
        start = self._expect("keyword", "typedef")
        if self._at("keyword", "struct") and (
            self._at("op", "{", 1) or self._at("op", "{", 2)
        ):
            self._parse_struct_definition(typedef=True)
            return
        if self._at("keyword", "enum"):
            self._parse_enum_definition()
            return
        # Plain alias: typedef <type> name;
        base = self._parse_base_type()
        pointer_depth = self._parse_stars()
        name = self._expect("ident").text
        self._expect("op", ";")
        self.unit.typedefs.append(
            ast.Typedef(name, ast.TypeExpr(base, pointer_depth), start.location)
        )
        self.typedef_names.add(name)

    def _parse_struct_definition(self, typedef: bool) -> None:
        start = self._expect("keyword", "struct")
        tag = None
        if self._at("ident"):
            tag = self._advance().text
        self._expect("op", "{")
        fields: list[ast.StructField] = []
        while not self._at("op", "}"):
            base = self._parse_base_type()
            while True:
                depth = self._parse_stars()
                field_name = self._expect("ident").text
                array_size = None
                if self._at("op", "["):
                    self._advance()
                    array_size = int(self._expect("number").text, 0)
                    self._expect("op", "]")
                fields.append(
                    ast.StructField(ast.TypeExpr(base, depth), field_name, array_size)
                )
                if self._at("op", ","):
                    self._advance()
                    continue
                break
            self._expect("op", ";")
        self._expect("op", "}")
        name = tag
        if typedef or self._at("ident"):
            if self._at("ident"):
                name = self._advance().text
                self.typedef_names.add(name)
        self._expect("op", ";")
        if name is None:
            raise ParseError("anonymous struct definitions are not supported",
                             start.location)
        struct = ast.StructDef(name, fields, start.location)
        self.unit.structs.append(struct)
        if tag is not None and tag != name:
            # Allow both "struct tag" and the typedef name to refer to it.
            self.unit.typedefs.append(
                ast.Typedef(tag, ast.TypeExpr(name, 0), start.location)
            )

    def _parse_enum_definition(self) -> None:
        start = self._expect("keyword", "enum")
        tag = None
        if self._at("ident"):
            tag = self._advance().text
        self._expect("op", "{")
        enumerators: list[tuple[str, int]] = []
        next_value = 0
        while not self._at("op", "}"):
            enum_name = self._expect("ident").text
            if self._at("op", "="):
                self._advance()
                next_value = int(self._expect("number").text, 0)
            enumerators.append((enum_name, next_value))
            next_value += 1
            if self._at("op", ","):
                self._advance()
        self._expect("op", "}")
        name = tag
        if self._at("ident"):
            name = self._advance().text
            self.typedef_names.add(name)
        self._expect("op", ";")
        if name is None:
            raise ParseError("anonymous enums are not supported", start.location)
        self.unit.enums.append(ast.EnumDef(name, enumerators, start.location))

    def _parse_global_var(self, type_expr: ast.TypeExpr, name_token: Token) -> None:
        init = None
        if self._at("op", "="):
            self._advance()
            init = self._parse_expression()
        self.unit.globals.append(
            ast.GlobalVarDecl(type_expr, name_token.text, init, name_token.location)
        )
        while self._at("op", ","):
            self._advance()
            depth = self._parse_stars()
            other = self._expect("ident")
            other_type = ast.TypeExpr(type_expr.base, depth)
            other_init = None
            if self._at("op", "="):
                self._advance()
                other_init = self._parse_expression()
            self.unit.globals.append(
                ast.GlobalVarDecl(other_type, other.text, other_init, other.location)
            )
        self._expect("op", ";")

    def _parse_function(
        self, return_type: ast.TypeExpr, name_token: Token, is_extern: bool
    ) -> None:
        self._expect("op", "(")
        params: list[ast.Param] = []
        if not self._at("op", ")"):
            if self._at("keyword", "void") and self._at("op", ")", 1):
                self._advance()
            else:
                while True:
                    base = self._parse_base_type()
                    depth = self._parse_stars()
                    param_name = ""
                    if self._at("ident"):
                        param_name = self._advance().text
                    params.append(ast.Param(ast.TypeExpr(base, depth), param_name))
                    if self._at("op", ","):
                        self._advance()
                        continue
                    break
        self._expect("op", ")")
        if self._at("op", ";"):
            self._advance()
            self.unit.prototypes.append(
                ast.FunctionDecl(return_type, name_token.text, params,
                                 name_token.location)
            )
            return
        if is_extern:
            raise ParseError("extern function with a body", name_token.location)
        body = self._parse_compound()
        self.unit.functions.append(
            ast.FunctionDef(return_type, name_token.text, params, body,
                            name_token.location)
        )

    # ----------------------------------------------------------------- types

    def _parse_base_type(self) -> str:
        # Skip qualifiers.
        while self._at("keyword", "const") or self._at("keyword", "volatile") or \
                self._at("keyword", "static"):
            self._advance()
        token = self._peek()
        if token.kind == "keyword" and token.text in _INT_SPECIFIERS:
            # Consume a run of integer specifiers ("unsigned long", ...).
            while self._peek().kind == "keyword" and \
                    self._peek().text in _INT_SPECIFIERS:
                self._advance()
            return "int"
        if token.kind == "keyword" and token.text in ("bool", "_Bool"):
            self._advance()
            return "bool"
        if token.kind == "keyword" and token.text == "void":
            self._advance()
            return "void"
        if token.kind == "keyword" and token.text in ("struct", "union"):
            self._advance()
            name = self._expect("ident").text
            return name
        if token.kind == "keyword" and token.text == "enum":
            self._advance()
            self._expect("ident")
            return "int"
        if token.kind == "ident" and token.text in self.typedef_names:
            self._advance()
            return token.text
        raise ParseError(f"expected a type, found {token.text!r}", token.location)

    def _parse_stars(self) -> int:
        depth = 0
        while self._at("op", "*"):
            self._advance()
            depth += 1
        return depth

    # ------------------------------------------------------------ statements

    def _parse_compound(self) -> ast.CompoundStmt:
        start = self._expect("op", "{")
        statements: list[ast.Stmt] = []
        while not self._at("op", "}"):
            statements.append(self._parse_statement())
        self._expect("op", "}")
        return ast.CompoundStmt(statements, start.location)

    def _as_compound(self, stmt: ast.Stmt) -> ast.CompoundStmt:
        if isinstance(stmt, ast.CompoundStmt):
            return stmt
        return ast.CompoundStmt([stmt], stmt.location)

    def _parse_statement(self) -> ast.Stmt:
        token = self._peek()
        if self._at("op", "{"):
            return self._parse_compound()
        if self._at("op", ";"):
            self._advance()
            return ast.CompoundStmt([], token.location)
        if self._at("keyword", "if"):
            return self._parse_if()
        if self._at("keyword", "while"):
            return self._parse_while()
        if self._at("keyword", "do"):
            return self._parse_do_while()
        if self._at("keyword", "for"):
            raise ParseError("'for' loops are not supported; use 'while'",
                             token.location)
        if self._at("keyword", "return"):
            self._advance()
            value = None
            if not self._at("op", ";"):
                value = self._parse_expression()
            self._expect("op", ";")
            return ast.ReturnStmt(value, token.location)
        if self._at("keyword", "break"):
            self._advance()
            self._expect("op", ";")
            return ast.BreakStmt(token.location)
        if self._at("keyword", "continue"):
            self._advance()
            self._expect("op", ";")
            return ast.ContinueStmt(token.location)
        if self._at("keyword", "atomic"):
            self._advance()
            body = self._parse_compound()
            return ast.AtomicStmt(body, token.location)
        if self._is_type_start() and not self._at("op", "(", 1):
            return self._parse_local_decl()
        # Expression statement (assignment or call).
        expr = self._parse_assignment()
        self._expect("op", ";")
        return ast.ExprStmt(expr, token.location)

    def _parse_local_decl(self) -> ast.Stmt:
        start = self._peek()
        base = self._parse_base_type()
        names: list[str] = []
        inits: list[ast.Expr | None] = []
        types: list[int] = []
        while True:
            depth = self._parse_stars()
            name = self._expect("ident").text
            init = None
            if self._at("op", "="):
                self._advance()
                init = self._parse_expression()
            names.append(name)
            inits.append(init)
            types.append(depth)
            if self._at("op", ","):
                self._advance()
                continue
            break
        self._expect("op", ";")
        # All declarators in one DeclStmt share the base; pointer depth may
        # differ per declarator, so emit one DeclStmt per declarator.
        statements = [
            ast.DeclStmt(ast.TypeExpr(base, depth), [name], [init], start.location)
            for name, init, depth in zip(names, inits, types)
        ]
        if len(statements) == 1:
            return statements[0]
        return ast.CompoundStmt(statements, start.location)

    def _parse_if(self) -> ast.Stmt:
        start = self._expect("keyword", "if")
        self._expect("op", "(")
        cond = self._parse_expression()
        self._expect("op", ")")
        then_body = self._as_compound(self._parse_statement())
        else_body = None
        if self._at("keyword", "else"):
            self._advance()
            else_body = self._as_compound(self._parse_statement())
        return ast.IfStmt(cond, then_body, else_body, start.location)

    def _parse_while(self) -> ast.Stmt:
        start = self._expect("keyword", "while")
        self._expect("op", "(")
        cond = self._parse_expression()
        self._expect("op", ")")
        body = self._as_compound(self._parse_statement())
        return ast.WhileStmt(cond, body, start.location)

    def _parse_do_while(self) -> ast.Stmt:
        start = self._expect("keyword", "do")
        body = self._as_compound(self._parse_statement())
        self._expect("keyword", "while")
        self._expect("op", "(")
        cond = self._parse_expression()
        self._expect("op", ")")
        self._expect("op", ";")
        return ast.DoWhileStmt(body, cond, start.location)

    # ----------------------------------------------------------- expressions

    def _parse_assignment(self) -> ast.Expr:
        left = self._parse_expression()
        if self._at("op", "="):
            token = self._advance()
            value = self._parse_assignment()
            return ast.Assign(left, value, token.location)
        return left

    def _parse_expression(self) -> ast.Expr:
        return self._parse_logical_or()

    def _parse_logical_or(self) -> ast.Expr:
        left = self._parse_logical_and()
        while self._at("op", "||"):
            token = self._advance()
            right = self._parse_logical_and()
            left = ast.Binary("||", left, right, token.location)
        return left

    def _parse_logical_and(self) -> ast.Expr:
        left = self._parse_equality()
        while self._at("op", "&&"):
            token = self._advance()
            right = self._parse_equality()
            left = ast.Binary("&&", left, right, token.location)
        return left

    def _parse_equality(self) -> ast.Expr:
        left = self._parse_relational()
        while self._at("op", "==") or self._at("op", "!="):
            token = self._advance()
            right = self._parse_relational()
            left = ast.Binary(token.text, left, right, token.location)
        return left

    def _parse_relational(self) -> ast.Expr:
        left = self._parse_additive()
        while (
            self._at("op", "<")
            or self._at("op", "<=")
            or self._at("op", ">")
            or self._at("op", ">=")
        ):
            token = self._advance()
            right = self._parse_additive()
            left = ast.Binary(token.text, left, right, token.location)
        return left

    def _parse_additive(self) -> ast.Expr:
        left = self._parse_unary()
        while self._at("op", "+") or self._at("op", "-"):
            token = self._advance()
            right = self._parse_unary()
            left = ast.Binary(token.text, left, right, token.location)
        return left

    def _parse_unary(self) -> ast.Expr:
        token = self._peek()
        if self._at("op", "*") or self._at("op", "&") or self._at("op", "!") \
                or self._at("op", "-") or self._at("op", "~"):
            self._advance()
            operand = self._parse_unary()
            return ast.Unary(token.text, operand, token.location)
        # Cast: '(' type-start ... ')' unary
        if self._at("op", "(") and self._is_type_start(1):
            self._advance()
            base = self._parse_base_type()
            depth = self._parse_stars()
            self._expect("op", ")")
            operand = self._parse_unary()
            return ast.Cast(ast.TypeExpr(base, depth), operand, token.location)
        if self._at("keyword", "sizeof"):
            self._advance()
            self._expect("op", "(")
            self._parse_base_type()
            self._parse_stars()
            self._expect("op", ")")
            # sizeof is only used as a malloc argument; its value is unused.
            return ast.IntLiteral(1, token.location)
        return self._parse_postfix()

    def _parse_postfix(self) -> ast.Expr:
        expr = self._parse_primary()
        while True:
            if self._at("op", "->"):
                token = self._advance()
                field_name = self._expect("ident").text
                expr = ast.FieldAccess(expr, field_name, True, token.location)
            elif self._at("op", "."):
                token = self._advance()
                field_name = self._expect("ident").text
                expr = ast.FieldAccess(expr, field_name, False, token.location)
            elif self._at("op", "["):
                token = self._advance()
                index = self._parse_expression()
                self._expect("op", "]")
                expr = ast.Index(expr, index, token.location)
            else:
                break
        return expr

    def _parse_primary(self) -> ast.Expr:
        token = self._peek()
        if token.kind == "number":
            self._advance()
            return ast.IntLiteral(int(token.text.rstrip("uUlL"), 0), token.location)
        if token.kind == "string":
            self._advance()
            return ast.StringLiteral(token.text, token.location)
        if self._at("keyword", "true"):
            self._advance()
            return ast.BoolLiteral(True, token.location)
        if self._at("keyword", "false"):
            self._advance()
            return ast.BoolLiteral(False, token.location)
        if self._at("keyword", "NULL"):
            self._advance()
            return ast.NullLiteral(token.location)
        if token.kind == "ident":
            self._advance()
            if self._at("op", "("):
                self._advance()
                args: list[ast.Expr] = []
                if not self._at("op", ")"):
                    while True:
                        args.append(self._parse_expression())
                        if self._at("op", ","):
                            self._advance()
                            continue
                        break
                self._expect("op", ")")
                return ast.CallExpr(token.text, args, token.location)
            return ast.Name(token.text, token.location)
        if self._at("op", "("):
            self._advance()
            expr = self._parse_expression()
            self._expect("op", ")")
            return expr
        raise ParseError(f"unexpected token {token.text!r}", token.location)


def parse(source: str) -> ast.TranslationUnit:
    """Parse C source text into a translation unit."""
    return Parser(tokenize(source)).parse_unit()
