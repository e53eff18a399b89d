#include "fsm/fsm.h"

#include <istream>
#include <ostream>
#include <sstream>
#include <stdexcept>

#include "util/strings.h"

namespace encodesat {

namespace {

// Upper bound for the .i/.o/.s/.p header counts: far above any real
// machine, low enough that a bogus header cannot drive an allocation of
// billions of cube positions downstream.
constexpr int kMaxHeaderCount = 1 << 20;

[[noreturn]] void kiss2_error(int line_no, const std::string& msg) {
  throw std::runtime_error("KISS2 line " + std::to_string(line_no) + ": " +
                           msg);
}

void check_cube_chars(const std::string& s, const char* what, int line_no) {
  for (char ch : s)
    if (ch != '0' && ch != '1' && ch != '-' && ch != '~')
      kiss2_error(line_no, std::string("bad ") + what +
                               " character in cube: " + s);
}

int header_count(const std::vector<std::string>& tok, int line_no) {
  const auto v = parse_count(tok[1], kMaxHeaderCount);
  if (!v)
    kiss2_error(line_no, tok[0] + " expects a count in [0, " +
                             std::to_string(kMaxHeaderCount) + "], got '" +
                             tok[1] + "'");
  return *v;
}

}  // namespace

Fsm parse_kiss2(std::istream& in) {
  Fsm fsm;
  std::string reset_name;
  std::string raw;
  int line_no = 0;
  int declared_p = -1, p_line = 0;
  int declared_s = -1, s_line = 0;
  int r_line = 0;
  while (std::getline(in, raw)) {
    ++line_no;
    std::string line{trim(raw)};
    if (line.empty() || line[0] == '#') continue;
    if (line[0] == '.') {
      auto tok = split_ws(line);
      const std::string& dir = tok[0];
      if (dir == ".i" && tok.size() >= 2) {
        fsm.num_inputs = header_count(tok, line_no);
      } else if (dir == ".o" && tok.size() >= 2) {
        fsm.num_outputs = header_count(tok, line_no);
      } else if (dir == ".p" && tok.size() >= 2) {
        declared_p = header_count(tok, line_no);
        p_line = line_no;
      } else if (dir == ".s" && tok.size() >= 2) {
        declared_s = header_count(tok, line_no);
        s_line = line_no;
      } else if (dir == ".r" && tok.size() >= 2) {
        reset_name = tok[1];
        r_line = line_no;
      } else if (dir == ".e" || dir == ".end") {
        break;
      } else {
        kiss2_error(line_no, "unsupported directive: " + dir);
      }
      continue;
    }
    auto tok = split_ws(line);
    if (tok.size() != 4)
      kiss2_error(line_no, "transition needs 4 fields: " + line);
    FsmTransition t;
    t.input = tok[0];
    t.output = tok[3];
    check_cube_chars(t.input, "input", line_no);
    check_cube_chars(t.output, "output", line_no);
    if (static_cast<int>(t.input.size()) != fsm.num_inputs)
      kiss2_error(line_no, "input width mismatch: " + line);
    if (static_cast<int>(t.output.size()) != fsm.num_outputs)
      kiss2_error(line_no, "output width mismatch: " + line);
    t.from = fsm.states.intern(tok[1]);
    t.to = fsm.states.intern(tok[2]);
    fsm.transitions.push_back(std::move(t));
  }
  if (!reset_name.empty()) {
    if (!fsm.states.contains(reset_name))
      kiss2_error(r_line, "reset state '" + reset_name +
                              "' appears in no transition");
    fsm.reset_state = static_cast<int>(fsm.states.at(reset_name));
  }
  if (declared_p >= 0 &&
      declared_p != static_cast<int>(fsm.transitions.size()))
    kiss2_error(p_line, ".p declares " + std::to_string(declared_p) +
                            " transitions but " +
                            std::to_string(fsm.transitions.size()) +
                            " follow");
  if (declared_s >= 0 && declared_s != static_cast<int>(fsm.num_states()))
    kiss2_error(s_line, ".s declares " + std::to_string(declared_s) +
                            " states but the transitions use " +
                            std::to_string(fsm.num_states()));
  return fsm;
}

Fsm parse_kiss2_string(const std::string& text) {
  std::istringstream in(text);
  return parse_kiss2(in);
}

void write_kiss2(std::ostream& out, const Fsm& fsm) {
  out << ".i " << fsm.num_inputs << '\n';
  out << ".o " << fsm.num_outputs << '\n';
  out << ".s " << fsm.num_states() << '\n';
  out << ".p " << fsm.transitions.size() << '\n';
  if (fsm.reset_state >= 0)
    out << ".r "
        << fsm.states.name(static_cast<std::uint32_t>(fsm.reset_state))
        << '\n';
  for (const auto& t : fsm.transitions)
    out << t.input << ' ' << fsm.states.name(t.from) << ' '
        << fsm.states.name(t.to) << ' ' << t.output << '\n';
  out << ".e\n";
}

std::string write_kiss2_string(const Fsm& fsm) {
  std::ostringstream out;
  write_kiss2(out, fsm);
  return out.str();
}

}  // namespace encodesat
