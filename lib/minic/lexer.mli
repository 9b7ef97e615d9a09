(** Hand-written lexer for Mini-C.

    Plays the role of the Lex scanner the authors used for their analysis
    scripts; here it feeds the recursive-descent parser.  Supports decimal
    and hexadecimal literals, [//] line comments and [/* ... */] block
    comments. *)

exception Error of { pos : Token.pos; msg : string }

val tokenize : string -> Token.located list
(** The token stream of a source string, ending with {!Token.Eof}.
    Raises {!Error} on an unexpected character, an unterminated comment
    or an integer literal above [max_int]. *)
