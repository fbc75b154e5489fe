#include "datalog/parser.h"

#include <cctype>
#include <unordered_map>

namespace dqsq {

namespace {

enum class TokKind {
  kIdent,
  kString,
  kLParen,
  kRParen,
  kComma,
  kPeriod,
  kAt,
  kColonDash,
  kNeq,
  kEnd,
};

struct Token {
  TokKind kind;
  std::string text;
  size_t pos;
};

class Lexer {
 public:
  explicit Lexer(std::string_view text) : text_(text) {}

  StatusOr<Token> Next() {
    SkipWhitespaceAndComments();
    size_t start = pos_;
    if (pos_ >= text_.size()) return Token{TokKind::kEnd, "", start};
    char c = text_[pos_];
    if (c == '(') { ++pos_; return Token{TokKind::kLParen, "(", start}; }
    if (c == ')') { ++pos_; return Token{TokKind::kRParen, ")", start}; }
    if (c == ',') { ++pos_; return Token{TokKind::kComma, ",", start}; }
    if (c == '.') { ++pos_; return Token{TokKind::kPeriod, ".", start}; }
    if (c == '@') { ++pos_; return Token{TokKind::kAt, "@", start}; }
    if (c == ':') {
      if (pos_ + 1 < text_.size() && text_[pos_ + 1] == '-') {
        pos_ += 2;
        return Token{TokKind::kColonDash, ":-", start};
      }
      return Error(start, "expected ':-'");
    }
    if (c == '!') {
      if (pos_ + 1 < text_.size() && text_[pos_ + 1] == '=') {
        pos_ += 2;
        return Token{TokKind::kNeq, "!=", start};
      }
      return Error(start, "expected '!='");
    }
    if (c == '"') {
      ++pos_;
      std::string value;
      while (pos_ < text_.size() && text_[pos_] != '"') {
        value += text_[pos_++];
      }
      if (pos_ >= text_.size()) return Error(start, "unterminated string");
      ++pos_;  // closing quote
      return Token{TokKind::kString, value, start};
    }
    if (std::isalnum(static_cast<unsigned char>(c)) || c == '_') {
      std::string value;
      while (pos_ < text_.size() &&
             (std::isalnum(static_cast<unsigned char>(text_[pos_])) ||
              text_[pos_] == '_')) {
        value += text_[pos_++];
      }
      return Token{TokKind::kIdent, value, start};
    }
    return Error(start, std::string("unexpected character '") + c + "'");
  }

 private:
  void SkipWhitespaceAndComments() {
    for (;;) {
      while (pos_ < text_.size() &&
             std::isspace(static_cast<unsigned char>(text_[pos_]))) {
        ++pos_;
      }
      if (pos_ < text_.size() && text_[pos_] == '%') {
        while (pos_ < text_.size() && text_[pos_] != '\n') ++pos_;
        continue;
      }
      return;
    }
  }

  Status Error(size_t pos, std::string message) {
    return InvalidArgumentError("parse error at offset " +
                                std::to_string(pos) + ": " +
                                std::move(message));
  }

  std::string_view text_;
  size_t pos_ = 0;
};

bool IsVariableName(const std::string& name) {
  return !name.empty() &&
         (std::isupper(static_cast<unsigned char>(name[0])) ||
          name[0] == '_');
}

class Parser {
 public:
  Parser(std::string_view text, DatalogContext& ctx)
      : lexer_(text), ctx_(ctx) {}

  StatusOr<Program> ParseProgram() {
    DQSQ_RETURN_IF_ERROR(Advance());
    Program program;
    while (tok_.kind != TokKind::kEnd) {
      DQSQ_ASSIGN_OR_RETURN(Rule rule, ParseRule());
      program.rules.push_back(std::move(rule));
    }
    return program;
  }

  StatusOr<ParsedQuery> ParseQueryAtom() {
    DQSQ_RETURN_IF_ERROR(Advance());
    BeginRuleScope();
    DQSQ_ASSIGN_OR_RETURN(Atom atom, ParseAtom());
    ParsedQuery q;
    q.atom = std::move(atom);
    q.num_vars = static_cast<uint32_t>(var_names_.size());
    q.var_names = var_names_;
    return q;
  }

 private:
  Status Advance() {
    DQSQ_ASSIGN_OR_RETURN(tok_, lexer_.Next());
    return Status::Ok();
  }

  Status Expect(TokKind kind, const char* what) {
    if (tok_.kind != kind) {
      return InvalidArgumentError("parse error at offset " +
                                  std::to_string(tok_.pos) + ": expected " +
                                  what + ", got '" + tok_.text + "'");
    }
    return Advance();
  }

  void BeginRuleScope() {
    var_slots_.clear();
    var_names_.clear();
  }

  VarId VarSlot(const std::string& name) {
    auto it = var_slots_.find(name);
    if (it != var_slots_.end()) return it->second;
    VarId id = static_cast<VarId>(var_names_.size());
    var_slots_.emplace(name, id);
    var_names_.push_back(name);
    return id;
  }

  StatusOr<Rule> ParseRule() {
    BeginRuleScope();
    DQSQ_ASSIGN_OR_RETURN(Atom head, ParseAtom());
    Rule rule;
    rule.head = std::move(head);
    if (tok_.kind == TokKind::kColonDash) {
      DQSQ_RETURN_IF_ERROR(Advance());
      for (;;) {
        // A body element is an atom or "term != term". Distinguish by
        // parsing a term first and checking for '!='. Only atoms start with
        // ident+( or ident+@ at this level, but variables start diseqs, so
        // peek: an atom begins with a lowercase ident followed by '(' or
        // '@'. A diseq begins with any term.
        DQSQ_ASSIGN_OR_RETURN(BodyElem elem, ParseBodyElem());
        if (elem.is_diseq) {
          rule.diseqs.push_back(std::move(elem.diseq));
        } else if (elem.is_negative) {
          rule.negative.push_back(std::move(elem.atom));
        } else {
          rule.body.push_back(std::move(elem.atom));
        }
        if (tok_.kind == TokKind::kComma) {
          DQSQ_RETURN_IF_ERROR(Advance());
          continue;
        }
        break;
      }
    }
    DQSQ_RETURN_IF_ERROR(Expect(TokKind::kPeriod, "'.'"));
    rule.num_vars = static_cast<uint32_t>(var_names_.size());
    rule.var_names =
        std::make_shared<const std::vector<std::string>>(var_names_);
    return rule;
  }

  struct BodyElem {
    bool is_diseq = false;
    bool is_negative = false;
    Atom atom;
    Diseq diseq;
  };

  StatusOr<BodyElem> ParseBodyElem() {
    if (tok_.kind == TokKind::kIdent && tok_.text == "not") {
      DQSQ_RETURN_IF_ERROR(Advance());
      DQSQ_ASSIGN_OR_RETURN(Atom atom, ParseAtom());
      BodyElem elem;
      elem.is_negative = true;
      elem.atom = std::move(atom);
      return elem;
    }
    if (tok_.kind == TokKind::kIdent && !IsVariableName(tok_.text)) {
      // Could be an atom (ident '(' or ident '@') or a constant in a diseq.
      std::string name = tok_.text;
      DQSQ_RETURN_IF_ERROR(Advance());
      if (tok_.kind == TokKind::kLParen || tok_.kind == TokKind::kAt) {
        DQSQ_ASSIGN_OR_RETURN(Atom atom, ParseAtomAfterName(name));
        BodyElem elem;
        elem.atom = std::move(atom);
        return elem;
      }
      // Constant; must be a diseq lhs.
      Pattern lhs = Pattern::Const(ctx_.symbols().Intern(name));
      return ParseDiseqAfterLhs(std::move(lhs));
    }
    // Variable or quoted constant: diseq lhs.
    DQSQ_ASSIGN_OR_RETURN(Pattern lhs, ParseTerm(1));
    return ParseDiseqAfterLhs(std::move(lhs));
  }

  StatusOr<BodyElem> ParseDiseqAfterLhs(Pattern lhs) {
    DQSQ_RETURN_IF_ERROR(Expect(TokKind::kNeq, "'!='"));
    DQSQ_ASSIGN_OR_RETURN(Pattern rhs, ParseTerm(1));
    BodyElem elem;
    elem.is_diseq = true;
    elem.diseq = Diseq{std::move(lhs), std::move(rhs)};
    return elem;
  }

  StatusOr<Atom> ParseAtom() {
    if (tok_.kind != TokKind::kIdent || IsVariableName(tok_.text)) {
      return InvalidArgumentError("parse error at offset " +
                                  std::to_string(tok_.pos) +
                                  ": expected predicate name");
    }
    std::string name = tok_.text;
    DQSQ_RETURN_IF_ERROR(Advance());
    return ParseAtomAfterName(name);
  }

  StatusOr<Atom> ParseAtomAfterName(const std::string& name) {
    SymbolId peer = ctx_.local_peer();
    if (tok_.kind == TokKind::kAt) {
      DQSQ_RETURN_IF_ERROR(Advance());
      if (tok_.kind != TokKind::kIdent || IsVariableName(tok_.text)) {
        return InvalidArgumentError(
            "parse error at offset " + std::to_string(tok_.pos) +
            ": peer names are constants (paper §3) — got '" + tok_.text + "'");
      }
      peer = ctx_.symbols().Intern(tok_.text);
      DQSQ_RETURN_IF_ERROR(Advance());
    }
    DQSQ_RETURN_IF_ERROR(Expect(TokKind::kLParen, "'('"));
    std::vector<Pattern> args;
    if (tok_.kind != TokKind::kRParen) {
      for (;;) {
        DQSQ_ASSIGN_OR_RETURN(Pattern arg, ParseTerm(1));
        args.push_back(std::move(arg));
        if (tok_.kind == TokKind::kComma) {
          DQSQ_RETURN_IF_ERROR(Advance());
          continue;
        }
        break;
      }
    }
    DQSQ_RETURN_IF_ERROR(Expect(TokKind::kRParen, "')'"));
    Atom atom;
    atom.rel.pred =
        ctx_.InternPredicate(name, static_cast<uint32_t>(args.size()));
    atom.rel.peer = peer;
    atom.args = std::move(args);
    return atom;
  }

  // Parses a term nested `depth` levels deep (1 = an atom argument).
  StatusOr<Pattern> ParseTerm(uint32_t depth) {
    if (depth > kMaxTermDepth) {
      return InvalidArgumentError(
          "parse error at offset " + std::to_string(tok_.pos) +
          ": term nested deeper than " + std::to_string(kMaxTermDepth));
    }
    if (tok_.kind == TokKind::kString) {
      Pattern p = Pattern::Const(ctx_.symbols().Intern(tok_.text));
      DQSQ_RETURN_IF_ERROR(Advance());
      return p;
    }
    if (tok_.kind != TokKind::kIdent) {
      return InvalidArgumentError("parse error at offset " +
                                  std::to_string(tok_.pos) +
                                  ": expected term, got '" + tok_.text + "'");
    }
    std::string name = tok_.text;
    DQSQ_RETURN_IF_ERROR(Advance());
    if (tok_.kind == TokKind::kLParen) {
      // Function application.
      DQSQ_RETURN_IF_ERROR(Advance());
      std::vector<Pattern> args;
      if (tok_.kind != TokKind::kRParen) {
        for (;;) {
          DQSQ_ASSIGN_OR_RETURN(Pattern arg, ParseTerm(depth + 1));
          args.push_back(std::move(arg));
          if (tok_.kind == TokKind::kComma) {
            DQSQ_RETURN_IF_ERROR(Advance());
            continue;
          }
          break;
        }
      }
      DQSQ_RETURN_IF_ERROR(Expect(TokKind::kRParen, "')'"));
      return Pattern::App(ctx_.symbols().Intern(name), std::move(args));
    }
    if (IsVariableName(name)) return Pattern::Var(VarSlot(name));
    return Pattern::Const(ctx_.symbols().Intern(name));
  }

  Lexer lexer_;
  DatalogContext& ctx_;
  Token tok_{TokKind::kEnd, "", 0};
  std::unordered_map<std::string, VarId> var_slots_;
  std::vector<std::string> var_names_;
};

}  // namespace

StatusOr<Program> ParseProgram(std::string_view text, DatalogContext& ctx) {
  Parser parser(text, ctx);
  DQSQ_ASSIGN_OR_RETURN(Program program, parser.ParseProgram());
  DQSQ_RETURN_IF_ERROR(ValidateProgram(program, ctx));
  return program;
}

StatusOr<ParsedQuery> ParseQuery(std::string_view text, DatalogContext& ctx) {
  Parser parser(text, ctx);
  return parser.ParseQueryAtom();
}

}  // namespace dqsq
